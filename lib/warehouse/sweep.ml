let sweep_order = Sweep_engine.order

include
  (val Sweep_engine.algorithm
         { name = "sweep"; compensate = true; local_answers = true;
           batch_max = None; window = 1; split = false; install = Immediate })
