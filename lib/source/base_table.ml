open Repro_relational
open Repro_protocol

(* A per-column hash index: join value -> (tuple -> multiplicity). Kept
   exactly in sync with the relation by [apply]. *)
type index = (Value.t, (Tuple.t, int) Hashtbl.t) Hashtbl.t

type t = {
  src : int;
  rel : Relation.t;
  indexes : (int * index) list;
  mutable next_seq : int;
  mutable rev_log : (Message.txn_id * Delta.t) list;
  mutable scans : int;
      (* probes that found no index and degraded to an O(n) relation
         scan — per table, so concurrent runs (and, eventually, domains)
         never share a counter; the harness sums its own tables into
         Metrics.unindexed_scans and the default-strategy suites assert
         the sum stays 0 *)
}

let index_add (idx : index) tup col count =
  let v = Tuple.get tup col in
  let bucket =
    match Hashtbl.find_opt idx v with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 4 in
        Hashtbl.replace idx v b;
        b
  in
  let c = Option.value ~default:0 (Hashtbl.find_opt bucket tup) + count in
  if c = 0 then begin
    Hashtbl.remove bucket tup;
    if Hashtbl.length bucket = 0 then Hashtbl.remove idx v
  end
  else Hashtbl.replace bucket tup c

(* The local columns of source [id] named by the chain's join
   conditions: those get persistent hash indexes so sweep queries probe
   instead of scanning. *)
let join_columns view id =
  let ofs = View_def.offset view id in
  let of_joins i pick =
    if i < 0 || i >= View_def.n_sources view - 1 then []
    else
      List.map
        (fun eq -> pick eq - ofs)
        (View_def.join_between view i).Join_spec.equalities
  in
  of_joins (id - 1) snd @ of_joins id fst

let create ~source ?(indexes = []) ?view rel =
  let indexes =
    match view with
    | None -> indexes
    | Some v -> indexes @ join_columns v source
  in
  let indexes =
    List.map
      (fun col ->
        let idx : index = Hashtbl.create 64 in
        Relation.iter (fun tup c -> index_add idx tup col c) rel;
        (col, idx))
      (List.sort_uniq Int.compare indexes)
  in
  { src = source; rel; indexes; next_seq = 0; rev_log = [];
    scans = 0 }

let source t = t.src
let relation t = t.rel
let indexed_columns t = List.map fst t.indexes

let probe t ~col ~value =
  match List.assoc_opt col t.indexes with
  | Some idx -> (
      match Hashtbl.find_opt idx value with
      | None -> []
      | Some bucket -> Hashtbl.fold (fun tup c acc -> (tup, c) :: acc) bucket [])
  | None ->
      (* No index: degrade to a counted O(n) scan rather than fail the
         query — the default-strategy suites assert the counter stays 0,
         so a call-site regression surfaces in tests, not in latency. *)
      t.scans <- t.scans + 1;
      let acc = ref [] in
      Relation.iter
        (fun tup c -> if Tuple.get tup col = value then acc := (tup, c) :: !acc)
        t.rel;
      !acc

let apply t delta =
  (match Relation.apply t.rel delta with
  | Ok () -> ()
  | Error tuples ->
      invalid_arg
        (Printf.sprintf "Base_table.apply: delete of absent tuple(s) %s at source %d"
           (String.concat ", " (List.map Tuple.to_string tuples))
           t.src));
  List.iter
    (fun (col, idx) ->
      Delta.iter (fun tup c -> index_add idx tup col c) delta)
    t.indexes;
  let txn = { Message.source = t.src; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  t.rev_log <- (txn, Delta.copy delta) :: t.rev_log;
  txn

let log t = List.rev t.rev_log
let applied t = t.next_seq
let scan_count t = t.scans
