module Graph = Topology.Graph
module Routing = Topology.Routing

type report = { inter : int; intra : int }

let inter_fraction { inter; intra } =
  let total = inter + intra in
  if total = 0 then 0. else float_of_int inter /. float_of_int total

let vlink_is_inter graph (routing : Routing.reduced) j =
  if j < 0 || j >= Array.length routing.Routing.vlinks then
    invalid_arg "As_location.vlink_is_inter: bad column";
  Array.exists (Graph.is_inter_as graph) routing.Routing.vlinks.(j)

let classify ~graph ~routing ~loss_rates ~threshold =
  let nc = Array.length routing.Routing.vlinks in
  if Array.length loss_rates <> nc then
    invalid_arg "As_location.classify: loss rate length mismatch";
  let inter = ref 0 and intra = ref 0 in
  for j = 0 to nc - 1 do
    if loss_rates.(j) > threshold then
      if vlink_is_inter graph routing j then incr inter else incr intra
  done;
  { inter = !inter; intra = !intra }
