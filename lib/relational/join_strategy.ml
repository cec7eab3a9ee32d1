type t = Pairwise | Probe

let default = Probe
let all = [ Pairwise; Probe ]

let to_string = function Pairwise -> "pairwise" | Probe -> "probe"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "pairwise" | "scan" | "hash" -> Some Pairwise
  | "probe" | "index" | "indexed" -> Some Probe
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)
