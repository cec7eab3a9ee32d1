open Repro_protocol

type entry = { update : Message.update; arrival : int; arrived_at : float }

(* Entries are kept oldest-first in a two-list deque: [front] holds the
   oldest entries in order, [rear] the newest in reverse. Appends and pops
   are O(1) amortized and the length is cached, so neither the hot append
   path nor the capacity check walks the queue. Mid-queue removal (which
   algorithms need for absorption) rebuilds both lists — it was O(n)
   before and stays O(n). *)
type t = {
  mutable front : entry list;
  mutable rear : entry list;
  mutable len : int;
  mutable next_arrival : int;
  capacity : int option;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Update_queue.create: capacity <= 0"
  | _ -> ());
  { front = []; rear = []; len = 0; next_arrival = 0; capacity }

let capacity t = t.capacity

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
  entry

(* Crash recovery: rebuild a queue from checkpointed entries, preserving
   their original arrival numbers and the next number to assign. *)
let of_entries ?capacity entries ~next_arrival =
  let t = create ?capacity () in
  t.front <- entries;
  t.len <- List.length entries;
  t.next_arrival <- next_arrival;
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
      Some e

(* Degraded-mode abort path: return an entry to the head so the next
   [pop] re-yields it (its arrival number is unchanged). *)
let push_front t e =
  (match t.capacity with
  | Some c when t.len >= c -> invalid_arg "Update_queue.push_front: over capacity"
  | _ -> ());
  t.front <- e :: t.front;
  t.len <- t.len + 1

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
  taken

let from_source t j =
  List.filter (fun e -> e.update.Message.txn.source = j) (entries t)

let take_from_source t j =
  let mine, rest =
    List.partition (fun e -> e.update.Message.txn.source = j) (entries t)
  in
  t.front <- rest;
  t.rear <- [];
  t.len <- List.length rest;
  mine

let last_arrival t = t.next_arrival - 1
