(* The repository benchmark. Normally run through run.py, which builds
   this executable first:

     python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

   prints a per-algorithm report and, as its last line, one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1 (which also writes
   the traced pass's spans to perfbench/out/<workload>.trace.json). *)

open Perfbench
module Jsonw = Repro_observability.Jsonw

let usage () =
  prerr_endline
    ("usage: main.exe --workload "
    ^ String.concat "|" (List.map (fun (w : Workload.t) -> w.name) Workload.all)
    ^ " --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.
  and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w = match Workload.find !workload with Some w -> w | None -> usage () in
  let seed = match !seed with Some s -> s | None -> usage () in
  let inputs = Inputs.generate ~seed:(Int64.of_int seed) w.spec in
  Printf.printf "workload %s (seed %d): %s\n" w.name seed w.why;
  Printf.printf "  algorithms: %s\n" (String.concat ", " w.algorithms);
  List.iter (fun (a, why) -> Printf.printf "  left out: %s — %s\n" a why) w.left_out;
  let seed = Int64.of_int seed in
  let outcome =
    if !trace = 0 then Bench.end_to_end ~seconds:!seconds ~seed w inputs
    else begin
      let outcome, doc =
        Bench.per_layer ~seconds:!seconds ~seed ~span_limit:10_000 w inputs
      in
      let dir = "perfbench/out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let file = Filename.concat dir (w.name ^ ".trace.json") in
      let oc = open_out file in
      Jsonw.to_channel oc doc;
      close_out oc;
      Printf.printf "spans: %s\n" file;
      outcome
    end
  in
  List.iter print_endline outcome.report;
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-40s %g %s\n" name value unit)
    outcome.figures;
  print_endline
    (Jsonw.to_string
       (Jsonw.obj
          [ ("correct", Jsonw.bool outcome.correct);
            ("attempted", Jsonw.int outcome.attempted);
            ("failed", Jsonw.int outcome.failed);
            ( "metrics",
              Jsonw.obj
                (List.map
                   (fun (name, value, unit) ->
                     ( name,
                       Jsonw.obj
                         [ ("value", Jsonw.float value);
                           ("unit", Jsonw.str unit) ] ))
                   outcome.figures) ) ]))
