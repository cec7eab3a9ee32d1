(* The hash join indexes the smaller operand. Keys are the tuples of values
   named by the join equalities; an empty equality list degenerates to a
   cross product (single shared key). *)

let key_of_side offset tup eqs side =
  Array.of_list
    (List.map
       (fun (l, r) ->
         let g = match side with `L -> l | `R -> r in
         tup.(g - offset))
       eqs)

let join view (left : Partial.t) (right : Partial.t) : Partial.t =
  if left.hi + 1 <> right.lo then
    invalid_arg
      (Printf.sprintf "Algebra.join: partials [%d..%d] and [%d..%d] not adjacent"
         left.lo left.hi right.lo right.hi);
  let spec = View_def.join_between view left.hi in
  let eqs = spec.Join_spec.equalities in
  let lofs = View_def.offset view left.lo in
  let rofs = View_def.offset view right.lo in
  let result = Delta.empty () in
  let residual_ok ltup rtup =
    match spec.Join_spec.residual with
    | None -> true
    | Some p ->
        let lookup g = if g < rofs then ltup.(g - lofs) else rtup.(g - rofs) in
        Predicate.eval ~lookup p
  in
  let emit ltup lc rtup rc =
    if residual_ok ltup rtup then
      Delta.add result (Tuple.concat ltup rtup) (lc * rc)
  in
  (* Index the smaller side; probe with the larger. *)
  if Delta.cardinal left.data <= Delta.cardinal right.data then begin
    let idx = Hashtbl.create (max 16 (Delta.cardinal left.data * 2)) in
    Delta.iter
      (fun tup c -> Hashtbl.add idx (key_of_side lofs tup eqs `L) (tup, c))
      left.data;
    Delta.iter
      (fun rtup rc ->
        List.iter
          (fun (ltup, lc) -> emit ltup lc rtup rc)
          (Hashtbl.find_all idx (key_of_side rofs rtup eqs `R)))
      right.data
  end
  else begin
    let idx = Hashtbl.create (max 16 (Delta.cardinal right.data * 2)) in
    Delta.iter
      (fun tup c -> Hashtbl.add idx (key_of_side rofs tup eqs `R) (tup, c))
      right.data;
    Delta.iter
      (fun ltup lc ->
        List.iter
          (fun (rtup, rc) -> emit ltup lc rtup rc)
          (Hashtbl.find_all idx (key_of_side lofs ltup eqs `L)))
      left.data
  end;
  { Partial.lo = left.lo; hi = right.hi; data = result }

let extend view (p : Partial.t) ~with_relation:(j, r) =
  let rp = Partial.of_relation view j r in
  if j = p.lo - 1 then join view rp p
  else if j = p.hi + 1 then join view p rp
  else
    invalid_arg
      (Printf.sprintf "Algebra.extend: source %d not adjacent to [%d..%d]" j
         p.lo p.hi)

let compensate view ~answer ~(interfering : Delta.t) ~(temp : Partial.t) =
  let j =
    if answer.Partial.lo = temp.lo - 1 then answer.Partial.lo
    else if answer.Partial.hi = temp.hi + 1 then answer.Partial.hi
    else
      invalid_arg
        (Printf.sprintf
           "Algebra.compensate: answer [%d..%d] does not extend temp [%d..%d]"
           answer.Partial.lo answer.Partial.hi temp.lo temp.hi)
  in
  let dp = Partial.of_source_delta view j interfering in
  let error = if j < temp.lo then join view dp temp else join view temp dp in
  Partial.sub answer error

(* Which side of [p] the adjacent [source] joins on. *)
let side ~who (p : Partial.t) ~source =
  if source = p.lo - 1 then `Left
  else if source = p.hi + 1 then `Right
  else
    invalid_arg
      (Printf.sprintf "Algebra.%s: source %d not adjacent to [%d..%d]" who
         source p.lo p.hi)

(* The join spec of that junction. *)
let junction view (p : Partial.t) ~source = function
  | `Left -> View_def.join_between view source
  | `Right -> View_def.join_between view p.hi

(* Each equality names one attribute in [source] and one inside [p], as
   (source-local, p-local) columns. *)
let local_equalities view (p : Partial.t) ~source dir eqs =
  let src_ofs = View_def.offset view source in
  let p_ofs = View_def.offset view p.lo in
  List.map
    (fun (lg, rg) ->
      match dir with
      | `Left -> (lg - src_ofs, rg - p_ofs)
      | `Right -> (rg - src_ofs, lg - p_ofs))
    eqs

let probe_column view p ~source =
  let dir = side ~who:"probe_column" p ~source in
  let spec = junction view p ~source dir in
  match local_equalities view p ~source dir spec.Join_spec.equalities with
  | [] -> None
  | (src_col, _) :: _ -> Some src_col

let extend_with_probe view (p : Partial.t) ~source ~probe =
  let dir = side ~who:"extend_with_probe" p ~source in
  let spec = junction view p ~source dir in
  match local_equalities view p ~source dir spec.Join_spec.equalities with
  | [] -> None (* cross-product junction: no column to probe on *)
  | (src_col, p_col) :: rest ->
      (* the first equality drives the probe, the rest filter
         candidates *)
      let src_ofs = View_def.offset view source in
      let p_ofs = View_def.offset view p.lo in
      let residual_ok stup ptup =
        match spec.Join_spec.residual with
        | None -> true
        | Some pr ->
            let lookup g =
              match dir with
              | `Left ->
                  if g < p_ofs then stup.(g - src_ofs) else ptup.(g - p_ofs)
              | `Right ->
                  if g < src_ofs then ptup.(g - p_ofs) else stup.(g - src_ofs)
            in
            Predicate.eval ~lookup pr
      in
      let result = Delta.empty () in
      Delta.iter
        (fun ptup pc ->
          List.iter
            (fun (stup, sc) ->
              if
                List.for_all
                  (fun (sc', pc') -> stup.(sc') = ptup.(pc'))
                  rest
                && residual_ok stup ptup
              then
                let combined =
                  match dir with
                  | `Left -> Tuple.concat stup ptup
                  | `Right -> Tuple.concat ptup stup
                in
                Delta.add result combined (pc * sc))
            (probe ~col:src_col ~value:(Tuple.get ptup p_col)))
        p.data;
      let lo, hi =
        match dir with
        | `Left -> (source, p.hi)
        | `Right -> (p.lo, source)
      in
      Some { Partial.lo; hi; data = result }

let merge_overlap view ~at ~(left : Partial.t) ~(right : Partial.t) =
  if left.hi <> at || right.lo <> at then
    invalid_arg
      (Printf.sprintf
         "Algebra.merge_overlap: [%d..%d] and [%d..%d] do not overlap at %d"
         left.lo left.hi right.lo right.hi at);
  let w = View_def.width view at in
  let left_width = Partial.arity view ~lo:left.lo ~hi:left.hi in
  let result = Delta.empty () in
  (* Index right tuples by their leading (at)-slice, probe with left's
     trailing slice. *)
  let idx = Hashtbl.create (max 16 (Delta.cardinal right.data * 2)) in
  Delta.iter
    (fun tup c -> Hashtbl.add idx (Tuple.slice tup 0 w) (tup, c))
    right.data;
  Delta.iter
    (fun ltup lc ->
      let key = Tuple.slice ltup (left_width - w) w in
      List.iter
        (fun (rtup, rc) ->
          let tail = Tuple.slice rtup w (Tuple.arity rtup - w) in
          Delta.add result (Tuple.concat ltup tail) (lc * rc))
        (Hashtbl.find_all idx key))
    left.data;
  { Partial.lo = left.lo; hi = right.hi; data = result }

let select_project view (full : Partial.t) : Delta.t =
  if not (Partial.covers_all view full) then
    invalid_arg "Algebra.select_project: partial does not span all sources";
  let sel = View_def.selection view in
  let proj = View_def.projection view in
  let out = Delta.empty () in
  Delta.iter
    (fun tup c ->
      let lookup g = tup.(g) in
      if Predicate.eval ~lookup sel then
        Delta.add out (Tuple.project tup proj) c)
    full.data;
  out

let eval view fetch =
  let n = View_def.n_sources view in
  let acc = ref (Partial.of_relation view 0 (fetch 0)) in
  for j = 1 to n - 1 do
    acc := extend view !acc ~with_relation:(j, fetch j)
  done;
  let d = select_project view !acc in
  (* A recomputation of a view from positive relations yields only positive
     counts, so the conversion below cannot fail. *)
  let r = Relation.create () in
  match Relation.apply r d with
  | Ok () -> r
  | Error _ -> assert false
