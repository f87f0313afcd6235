(* How fast the host runs right now, from a fixed probe in the
   benchmark's own code, so that timings can be reported at a reference
   speed.

   The development host is a 2-vCPU virtual machine on a machine shared
   with other tenants. Their load slows everything it runs by up to 2x,
   for minutes at a time, and CPU time slows with wall time, so ten
   seeds' median op time moved by 15-35% of itself within a few minutes
   and by 30-40% between sets of runs half an hour apart, with no change
   to the code. The probe mostly slows with it (README.md has the
   figures).

   The probe multiplies small matrices (the core), sweeps 1 MB (its L2
   cache) and 16 MB (the shared L3 cache) arrays, and allocates nothing,
   so no change to the library or to its heap can make it faster or
   slower. *)

open Bigarray

let n = 64
let a = Array.init (n * n) (fun i -> float_of_int (i mod 13) /. 7.)
let c = Array.make (n * n) 0.

let buffer words =
  let b = Array1.create float64 c_layout words in
  Array1.fill b 1.;
  b

let l2 = buffer (1 lsl 17)
let l3 = buffer (1 lsl 21)

let matmul () =
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0. in
      for k = 0 to n - 1 do
        s := !s +. (a.((i * n) + k) *. a.((k * n) + j))
      done;
      c.((i * n) + j) <- !s
    done
  done

let sweep (b : (float, float64_elt, c_layout) Array1.t) =
  for i = 0 to Array1.dim b - 1 do
    Array1.unsafe_set b i ((Array1.unsafe_get b i *. 0.999999) +. 1e-9)
  done

(* The probe's parts, each with its seconds on the reference host (the
   development host at its quietest, see README.md) and its weight. The
   L2 sweep weighs twice as much as the others: serve-992's ops, which
   work within a 1 MB plan, slowed with it more than with the others,
   and so weighted it left the diagnose workloads' spreads where they
   were. *)
let parts =
  [
    ((fun () -> for _ = 1 to 4 do matmul () done), 0.0018, 0.25);
    ((fun () -> for _ = 1 to 8 do sweep l2 done), 0.0009, 0.5);
    ((fun () -> sweep l3), 0.00275, 0.25);
  ]

(* How many times slower than the reference host the host runs now: the
   weighted mean of the parts' slowdowns. Every part runs once untimed
   first, so that what the op before the probe left in the caches does
   not matter. *)
let probe () =
  List.iter (fun (f, _, _) -> f ()) parts;
  List.fold_left
    (fun acc (f, reference, weight) ->
      let t0 = Unix.gettimeofday () in
      f ();
      acc +. (weight *. (Unix.gettimeofday () -. t0) /. reference))
    0. parts
