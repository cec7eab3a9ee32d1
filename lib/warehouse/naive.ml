(* No on-line error correction — the whole point of this baseline — and
   no self-maintenance either: it measures the cost of always asking the
   sources. *)
include
  (val Sweep_engine.algorithm
         { name = "naive"; compensate = false; local_answers = false;
           batch_max = None; window = 1; split = false; install = Immediate })
