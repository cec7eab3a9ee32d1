open Repro_relational
open Repro_protocol

type entry = { update : Message.update; arrival : int; arrived_at : float }

(* Entries are kept oldest-first in a two-list deque: [front] holds the
   oldest entries in order, [rear] the newest in reverse. Appends and pops
   are O(1) amortized and the length is cached, so neither the hot append
   path nor the capacity check walks the queue. Mid-queue removal (which
   algorithms need for absorption) rebuilds both lists — it was O(n)
   before and stays O(n).

   Interference state rides along per source: [counts.(j)] is the number
   of queued entries from [j], and [indexes.(j)] the column indexes over
   the net sum of their deltas that a correction has asked for. Every
   entry that enters or leaves the deque passes [enter]/[leave], which
   keep both in step; a source whose count returns to 0 drops its
   indexes. Neither is checkpointed: they are derived from the entries. *)
type t = {
  mutable front : entry list;
  mutable rear : entry list;
  mutable len : int;
  mutable next_arrival : int;
  capacity : int option;
  mutable counts : int array;
  mutable indexes : Col_index.t list array;
}

let source (e : entry) = e.update.Message.txn.Message.source

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Update_queue.create: capacity <= 0"
  | _ -> ());
  { front = []; rear = []; len = 0; next_arrival = 0; capacity;
    counts = [||]; indexes = [||] }

let capacity t = t.capacity

let count_from t j = if j < Array.length t.counts then t.counts.(j) else 0

let enter t e =
  let j = source e in
  if j >= Array.length t.counts then begin
    let n = max (j + 1) (2 * Array.length t.counts) in
    let grow a fill =
      Array.init n (fun k -> if k < Array.length a then a.(k) else fill)
    in
    t.counts <- grow t.counts 0;
    t.indexes <- grow t.indexes []
  end;
  t.counts.(j) <- t.counts.(j) + 1;
  match t.indexes.(j) with
  | [] -> ()
  | idxs ->
      List.iter (fun idx -> Col_index.add_bag idx e.update.Message.delta) idxs

let leave t e =
  let j = source e in
  let c = t.counts.(j) - 1 in
  t.counts.(j) <- c;
  match t.indexes.(j) with
  | [] -> ()
  | _ when c = 0 -> t.indexes.(j) <- []
  | idxs ->
      List.iter
        (fun idx -> Col_index.remove_bag idx e.update.Message.delta)
        idxs

let append t update ~arrived_at =
  (match t.capacity with
  | Some c when t.len >= c ->
      (* Admission control lives above the queue (the harness defers or
         sheds before delivery); reaching this point is a wiring bug. *)
      invalid_arg "Update_queue.append: over capacity"
  | _ -> ());
  let entry = { update; arrival = t.next_arrival; arrived_at } in
  t.next_arrival <- t.next_arrival + 1;
  t.rear <- entry :: t.rear;
  t.len <- t.len + 1;
  enter t entry;
  entry

(* Crash recovery: rebuild a queue from checkpointed entries, preserving
   their original arrival numbers and the next number to assign. *)
let of_entries ?capacity entries ~next_arrival =
  let t = create ?capacity () in
  t.front <- entries;
  t.len <- List.length entries;
  t.next_arrival <- next_arrival;
  List.iter (enter t) entries;
  t

let normalize t =
  if t.front = [] then begin
    t.front <- List.rev t.rear;
    t.rear <- []
  end

let pop t =
  normalize t;
  match t.front with
  | [] -> None
  | e :: rest ->
      t.front <- rest;
      t.len <- t.len - 1;
      leave t e;
      Some e

(* Degraded-mode abort path: return an entry to the head so the next
   [pop] re-yields it (its arrival number is unchanged). *)
let push_front t e =
  (match t.capacity with
  | Some c when t.len >= c -> invalid_arg "Update_queue.push_front: over capacity"
  | _ -> ());
  t.front <- e :: t.front;
  t.len <- t.len + 1;
  enter t e

let peek t =
  normalize t;
  match t.front with [] -> None | e :: _ -> Some e

let is_empty t = t.len = 0
let length t = t.len
let entries t = t.front @ List.rev t.rear

let take t ~max =
  if max < 0 then invalid_arg "Update_queue.take: max < 0";
  let rec go k acc =
    if k = 0 then List.rev acc
    else match pop t with None -> List.rev acc | Some e -> go (k - 1) (e :: acc)
  in
  go max []

(* Up to [max] eligible entries in arrival order, skipping (and
   preserving, in place) ineligible ones. *)
let take_eligible t ~max ~eligible =
  if max < 0 then invalid_arg "Update_queue.take_eligible: max < 0";
  let all = entries t in
  let rec go k taken kept = function
    | rest when k = 0 -> (List.rev taken, List.rev_append kept rest)
    | [] -> (List.rev taken, List.rev kept)
    | e :: rest ->
        if k > 0 && eligible e then go (k - 1) (e :: taken) kept rest
        else go k taken (e :: kept) rest
  in
  let taken, kept = go max [] [] all in
  t.front <- kept;
  t.rear <- [];
  t.len <- List.length kept;
  List.iter (leave t) taken;
  taken

let take_from_source t j =
  if count_from t j = 0 then []
  else begin
    let mine, rest = List.partition (fun e -> source e = j) (entries t) in
    t.front <- rest;
    t.rear <- [];
    t.len <- List.length rest;
    t.counts.(j) <- 0;
    t.indexes.(j) <- [];
    mine
  end

(* Entries from [j] in no particular order: every user only sums them. *)
let iter_from t j f =
  let visit e = if source e = j then f e in
  List.iter visit t.front;
  List.iter visit t.rear

let interference t j ~col =
  if count_from t j = 0 then None
  else
    match Col_index.find t.indexes.(j) col with
    | Some _ as idx -> idx
    | None ->
        let idx = Col_index.create ~initial_size:16 col in
        iter_from t j (fun e -> Col_index.add_bag idx e.update.Message.delta);
        t.indexes.(j) <- idx :: t.indexes.(j);
        Some idx

let indexed_columns t j =
  if j < Array.length t.indexes then List.map Col_index.col t.indexes.(j)
  else []

(* The net ΔR_j = extras + j's queued deltas as one fresh delta, for a
   cross-product junction, which has no column to probe. *)
let sum_from t j ~extras =
  let acc = Delta.sum extras in
  iter_from t j (fun e -> Bag.merge_into ~into:acc e.update.Message.delta);
  acc

(* The rows of ΔR_j whose column [col] equals [value]: the index bucket
   plus a scan of the extras, which are only ever a batch's own delta
   and the updates of later in-flight batches. A tuple found on both
   sides accumulates in the caller's result exactly as in the summed
   delta. *)
let probe t j ~extras ~col ~value =
  let queued =
    match interference t j ~col with
    | None -> []
    | Some idx -> Col_index.probe idx value
  in
  List.fold_left
    (fun acc d ->
      Delta.fold
        (fun tup c acc ->
          if Tuple.get tup col = value then (tup, c) :: acc else acc)
        d acc)
    queued extras

let correct t view ~source:j ~extras ~answer ~temp =
  match
    Algebra.extend_with_probe view temp ~source:j ~probe:(probe t j ~extras)
  with
  | Some error -> Partial.sub answer error
  | None ->
      Algebra.compensate view ~answer ~temp
        ~interfering:(sum_from t j ~extras)

(* ΔR_j is empty iff nothing else is queued than what the extras
   cancel: equal supports, opposite counts. *)
let interference_empty t view ~source:j ~extras ~temp =
  match Algebra.probe_column view temp ~source:j with
  | None -> Delta.is_empty (sum_from t j ~extras)
  | Some col -> (
      let e = Delta.sum extras in
      match interference t j ~col with
      | None -> Delta.is_empty e
      | Some idx ->
          Col_index.cardinal idx = Delta.cardinal e
          && Delta.fold
               (fun tup c ok -> ok && Col_index.count idx tup = -c)
               e true)

let last_arrival t = t.next_arrival - 1
