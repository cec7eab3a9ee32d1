let preset k =
  { Sweep_engine.name =
      (if k = 16 then "sweep-batched"
       else Printf.sprintf "sweep-batched(k=%d)" k);
    compensate = true; local_answers = true; batch_max = Some k; window = 1;
    split = false; install = Immediate }

include (val Sweep_engine.algorithm (preset 16))

let with_batch_max k = Sweep_engine.algorithm (preset k)
