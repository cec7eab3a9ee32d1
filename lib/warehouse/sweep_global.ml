(* Completed updates are buffered, not installed, while a global
   transaction is open, so local answers would be unsound here (see
   Sweep_engine.preset.local_answers). *)
include
  (val Sweep_engine.algorithm
         { name = "sweep-global"; compensate = true; local_answers = false;
           batch_max = None; window = 1; split = false; install = Global_txn })
