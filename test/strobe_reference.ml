(* Test-only oracle: the copy-scan-diff flush that Strobe and C-strobe
   used before the key-delete overlay (Keys.overlay) replaced it, kept
   verbatim below this comment apart from taking the action list as an
   argument. It copies the whole view, scans it once per key-delete and
   diffs the copy against the view, so its cost follows |V|; it is the
   reference the overlay must match delta for delta
   (test_strobe_flush.ml). *)

open Repro_relational
open Repro_warehouse

type action =
  | Del of { source : int; key : Tuple.t }
  | Ins of { full : Delta.t }

let view_deletion view ~contents ~source ~key =
  let out = Delta.empty () in
  Bag.iter
    (fun tup c ->
      if Tuple.equal (Keys.view_tuple_key view source tup) key then
        Delta.add out tup (-c))
    contents;
  out

(* The install delta of one flush of [actions] (in append order) over
   the view [contents]. *)
let flush view ~contents actions =
  let working = Bag.copy contents in
  List.iter
    (fun action ->
      match action with
      | Del { source; key } ->
          let d = view_deletion view ~contents:working ~source ~key in
          Bag.merge_into ~into:working d
      | Ins { full } ->
          let view_delta =
            Algebra.select_project view
              { Partial.lo = 0; hi = View_def.n_sources view - 1; data = full }
          in
          Delta.iter
            (fun tup c ->
              if c > 0 && not (Bag.mem working tup) then
                Bag.add working tup 1)
            view_delta)
    actions;
  let delta = Bag.copy working in
  Bag.diff_into ~into:delta contents;
  delta
