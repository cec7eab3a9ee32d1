let preset w =
  { Sweep_engine.name =
      (if w = 8 then "sweep-pipelined"
       else Printf.sprintf "sweep-pipelined(w=%d)" w);
    compensate = true; local_answers = false; batch_max = None; window = w;
    split = false; install = Immediate }

include (val Sweep_engine.algorithm (preset 8))

let with_window w = Sweep_engine.algorithm (preset w)
