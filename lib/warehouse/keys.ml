open Repro_relational

let require_keys ~algorithm view =
  if not (View_def.includes_all_keys view) then
    invalid_arg
      (Printf.sprintf
         "%s requires the view to project a unique key of every base \
          relation (paper §3); view %s does not"
         algorithm (View_def.name view))

let source_tuple_key view j tup =
  let keys = Schema.key_indices (View_def.schema view j) in
  Array.of_list (List.map (fun a -> tup.(a)) keys)

let full_tuple_key view j tup =
  let ofs = View_def.offset view j in
  let keys = Schema.key_indices (View_def.schema view j) in
  Array.of_list (List.map (fun a -> tup.(ofs + a)) keys)

let view_tuple_key view j tup =
  let positions = View_def.view_key_positions view j in
  Array.of_list (List.map (fun p -> tup.(p)) positions)

let kill_full view ~full ~source ~keys =
  let doomed =
    Delta.fold
      (fun tup c acc ->
        if Hashtbl.mem keys (full_tuple_key view source tup) then
          (tup, c) :: acc
        else acc)
      full []
  in
  List.iter (fun (tup, c) -> Delta.add full tup (-c)) doomed

(* ————— key-delete overlays ————— *)

type index = {
  positions : int array array;  (* each source's key positions in the view *)
  (* per source, built on first use: the installed view, indexed on the
     source's first view-key column *)
  by_source : Col_index.t option array;
}

let index view =
  let n = View_def.n_sources view in
  { positions =
      Array.init n (fun j -> Array.of_list (View_def.view_key_positions view j));
    by_source = Array.make n None }

type overlay = {
  idx : index;
  contents : Bag.t;
  delta : Delta.t;
  (* tuples this overlay inserted that the installed view lacks — the
     only candidates a key-delete cannot find in the index *)
  mutable fresh : Tuple.t list;
}

let overlay idx ~contents ?base () =
  let delta = match base with Some d -> Delta.copy d | None -> Delta.empty () in
  let fresh =
    Delta.fold
      (fun tup _ acc -> if Bag.mem contents tup then acc else tup :: acc)
      delta []
  in
  { idx; contents; delta; fresh }

let count o tup = Bag.count o.contents tup + Delta.count o.delta tup

let insert_once o tup =
  if count o tup = 0 then begin
    if not (Bag.mem o.contents tup) then o.fresh <- tup :: o.fresh;
    Delta.add o.delta tup 1
  end

let source_index o j =
  match o.idx.by_source.(j) with
  | Some ci -> ci
  | None ->
      let ci =
        Col_index.create ~initial_size:(Bag.cardinal o.contents)
          o.idx.positions.(j).(0)
      in
      Col_index.add_bag ci o.contents;
      o.idx.by_source.(j) <- Some ci;
      ci

let delete_key o ~source ~key =
  let positions = o.idx.positions.(source) in
  let matches tup =
    let rec go i =
      i = Array.length positions
      || (Value.equal tup.(positions.(i)) key.(i) && go (i + 1))
    in
    go 0
  in
  let keep tup acc = if matches tup then tup :: acc else acc in
  let doomed =
    List.fold_right keep o.fresh
      (Col_index.fold_probe
         (fun tup _ acc -> keep tup acc)
         (source_index o source) key.(0) [])
  in
  List.iter
    (fun tup ->
      let c = count o tup in
      if c <> 0 then Delta.add o.delta tup (-c))
    doomed

let delta o = o.delta

let commit o =
  Array.iter
    (Option.iter (fun ci -> Delta.iter (Col_index.add ci) o.delta))
    o.idx.by_source;
  o.delta
