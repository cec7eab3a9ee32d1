(* The benchmark's only wall-clock read: a monotonic nanosecond clock.
   Reporting-only — the simulation never reads it, so seeded runs stay
   bit-replayable whether or not they are timed. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns *. 1e-9
