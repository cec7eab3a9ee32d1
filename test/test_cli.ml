(* The simulator's command line: `warehouse_sim --help=plain` (captured
   by a rule in this directory's dune file) must render without any
   cmdliner doc-markup error, and the -a/--algorithm doc must name every
   algorithm the harness registry can run. *)

open Repro_harness

let help = "warehouse_sim_help.txt"

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The paragraph documenting [--algorithm], split into words. *)
let algorithm_doc_words lines =
  let rec skip = function
    | [] -> []
    | l :: rest ->
        if contains ~needle:"--algorithm=" l then take rest else skip rest
  and take = function
    | [] -> []
    | l :: rest -> if String.trim l = "" then [] else l :: take rest
  in
  skip lines
  |> String.concat " "
  |> String.map (fun c ->
         if (c >= 'a' && c <= 'z') || c = '-' then c else ' ')
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

let test_help () =
  let lines = In_channel.with_open_text help In_channel.input_lines in
  List.iter
    (fun l ->
      if contains ~needle:"cmdliner error" l then
        Alcotest.failf "--help reports a doc error: %s" l)
    lines;
  let words = algorithm_doc_words lines in
  Alcotest.(check bool) "--algorithm is documented" true (words <> []);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "--algorithm doc names %s" name)
        true (List.mem name words))
    Experiment.algorithm_names

let suite =
  [ Alcotest.test_case "--help renders and lists every algorithm" `Quick
      test_help ]
