include
  (val Sweep_engine.algorithm
         { name = "sweep-parallel"; compensate = true; local_answers = false;
           batch_max = None; window = 1; split = true; install = Immediate })
