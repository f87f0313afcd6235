(* Monotonized wall clock. The container's OCaml distribution exposes no
   CLOCK_MONOTONIC binding, so we monotonize [Unix.gettimeofday] against a
   process-start epoch: readings never decrease (concurrent readers race
   through a CAS on the high-water mark), and subtracting the epoch before
   scaling keeps double-precision nanosecond resolution for ~100 days of
   uptime. *)

let epoch = Unix.gettimeofday ()

let high_water = Atomic.make 0L

let raw_ns () = Int64.of_float ((Unix.gettimeofday () -. epoch) *. 1e9)

let rec monotonize t =
  let prev = Atomic.get high_water in
  if Int64.compare t prev <= 0 then prev
  else if Atomic.compare_and_set high_water prev t then t
  else monotonize t

let now_ns () = monotonize (raw_ns ())

let now_us () = Int64.div (now_ns ()) 1_000L

let seconds_since t0_ns = Int64.to_float (Int64.sub (now_ns ()) t0_ns) *. 1e-9
