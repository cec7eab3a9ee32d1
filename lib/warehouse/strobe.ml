open Repro_relational
open Repro_sim
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

let name = "strobe"

(* AL entries, in append order. [Del] carries the key of a deleted source
   tuple; [Ins] a ready full-width answer to project and merge. *)
type action =
  | Del of { source : int; key : Tuple.t }
  | Ins of { full : Delta.t }

type query = {
  entry : Update_queue.entry;
  mutable dv : Partial.t;
  mutable pending : int list;
  mutable outstanding : int;
  (* key-deletes delivered while this query was in flight *)
  mutable kill_keys : (int * Tuple.t) list;
  qid : int;
  mutable span : Tracer.id; (* lint: allow L5 volatile span ids: never checkpointed, Tracer.none after restore *)
  mutable leg : Tracer.id;
}

type t = {
  ctx : Algorithm.ctx;
  keys : Keys.index;
  (* unanswered query set, newest first (appends are hot; membership and
     removal never depend on order) *)
  mutable rev_uqs : query list;
  mutable rev_al : action list;
  (* entries awaiting install, newest first (reversed at flush — appends
     are hot, flushes amortize the reversal over the whole batch) *)
  mutable rev_batch : Update_queue.entry list;
}

let create ctx =
  Keys.require_keys ~algorithm:"Strobe" ctx.Algorithm.view;
  { ctx; keys = Keys.index ctx.view; rev_uqs = []; rev_al = [];
    rev_batch = [] }

let trace t fmt =
  Trace.emit t.ctx.Algorithm.trace ~time:(Engine.now t.ctx.engine)
    ~who:"warehouse" fmt

(* Apply AL to the materialized view atomically: key deletes remove every
   matching view tuple; inserts are added with duplicate suppression (the
   view's keys make any duplicate an already-derived tuple). The overlay
   builds the net change as one delta, so the work follows AL, not the
   view. *)
let flush t =
  if t.rev_al <> [] || t.rev_batch <> [] then begin
    let o = Keys.overlay t.keys ~contents:(t.ctx.view_contents ()) () in
    List.iter
      (fun action ->
        match action with
        | Del { source; key } -> Keys.delete_key o ~source ~key
        | Ins { full } ->
            let view_delta =
              Algebra.select_project t.ctx.view
                { Partial.lo = 0;
                  hi = View_def.n_sources t.ctx.view - 1;
                  data = full }
            in
            Delta.iter
              (fun tup c -> if c > 0 then Keys.insert_once o tup)
              view_delta)
      (List.rev t.rev_al);
    (* Install the net difference as one state transition. *)
    let delta = Keys.commit o in
    let txns = List.rev t.rev_batch in
    t.rev_al <- [];
    t.rev_batch <- [];
    trace t "strobe: flush AL (%d txns)" (List.length txns);
    if Obs.active t.ctx.obs then
      Obs.event t.ctx.obs "strobe.flush"
        [ ("txns", Tracer.I (List.length txns)) ];
    t.ctx.install delta ~txns
  end

let maybe_flush t = if t.rev_uqs = [] then flush t

let local t j = Aux_store.answers t.ctx.Algorithm.aux j

(* A live remote answer from [j] reflects installed state + the batch
   deltas from [j] already delivered but awaiting flush (FIFO: anything
   applied at [j] before it answered reached our mailbox first). The aux
   projection holds installed state only, so overlay the batch. *)
let batch_overlay t j =
  Delta.sum
    (List.filter_map
       (fun (e : Update_queue.entry) ->
         if e.update.Message.txn.source = j then Some e.update.Message.delta
         else None)
       t.rev_batch)

let rec advance t q =
  match q.pending with
  | j :: rest when local t j -> (
      match
        Algorithm.local_answer t.ctx ~name ~span:q.span ~target:j
          ~partial:q.dv ~overlay:(batch_overlay t j) ()
      with
      | Some dv ->
          q.pending <- rest;
          q.dv <- dv;
          advance t q
      | None -> assert false (* local t j implies answerable *))
  | j :: rest ->
      q.pending <- rest;
      q.outstanding <- j;
      q.leg <-
        (if Obs.active t.ctx.obs then
           Obs.span t.ctx.obs ~parent:q.span "query"
             [ ("source", Tracer.I j); ("qid", Tracer.I q.qid) ]
         else Tracer.none);
      t.ctx.send j
        (Message.Sweep_query
           { qid = q.qid; target = j; partial = Partial.copy q.dv })
  | [] ->
      (* Query finished: apply the deletes seen during evaluation, then
         append the insert action. *)
      let full = q.dv.Partial.data in
      List.iter
        (fun (source, key) ->
          let keys = Hashtbl.create 4 in
          Hashtbl.replace keys key ();
          Keys.kill_full t.ctx.view ~full ~source ~keys)
        q.kill_keys;
      t.rev_uqs <- List.filter (fun q' -> q'.qid <> q.qid) t.rev_uqs;
      t.rev_al <- Ins { full } :: t.rev_al;
      Obs.finish t.ctx.obs q.span;
      maybe_flush t

let on_update t (entry : Update_queue.entry) =
  (* Strobe consumes updates immediately; the queue is only a mailbox. *)
  (match Update_queue.pop t.ctx.queue with
  | Some e when e.arrival = entry.arrival -> ()
  | _ -> invalid_arg "Strobe.on_update: queue out of sync");
  t.rev_batch <- entry :: t.rev_batch;
  let delta = entry.update.Message.delta in
  let deletes = Delta.negative_part delta in
  let inserts = Delta.positive_part delta in
  let i = entry.update.Message.txn.source in
  (* Deletes: local key-delete actions, registered with in-flight
     queries. *)
  Delta.iter
    (fun tup _c ->
      let key = Keys.source_tuple_key t.ctx.view i tup in
      List.iter (fun q -> q.kill_keys <- (i, key) :: q.kill_keys) t.rev_uqs;
      t.rev_al <- Del { source = i; key } :: t.rev_al)
    deletes;
  (* Inserts: launch a query over the other sources. *)
  if not (Delta.is_empty inserts) then begin
    let n = View_def.n_sources t.ctx.view in
    let span =
      if Obs.active t.ctx.obs then
        Obs.span t.ctx.obs "strobe.txn"
          [ ("txn",
             Tracer.S
               (Format.asprintf "%a" Message.pp_txn_id
                  entry.update.Message.txn)) ]
      else Tracer.none
    in
    let q =
      { entry; dv = Partial.of_source_delta t.ctx.view i inserts;
        pending = Sweep.sweep_order ~n ~i; outstanding = -1;
        kill_keys = []; qid = t.ctx.fresh_qid (); span; leg = Tracer.none }
    in
    t.rev_uqs <- q :: t.rev_uqs;
    advance t q
  end
  else maybe_flush t

let on_answer t msg =
  match msg with
  | Message.Answer { qid; source = j; partial } -> (
      match List.find_opt (fun q -> q.qid = qid) t.rev_uqs with
      | Some q when q.outstanding = j ->
          q.outstanding <- -1;
          Obs.finish t.ctx.obs q.leg;
          q.leg <- Tracer.none;
          q.dv <- partial;
          advance t q
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "Strobe.on_answer: unexpected answer qid=%d" qid))
  | Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _ ->
      invalid_arg "Strobe.on_answer: unexpected message kind"

let on_source_down _ _ = ()
let on_source_up _ _ = ()

let idle t =
  t.rev_uqs = [] && t.rev_al = [] && Update_queue.is_empty t.ctx.queue

module Snap = Repro_durability.Snap

let snap_of_action = function
  | Del { source; key } ->
      Snap.List [ Snap.Int 0; Snap.Int source; Snap.Tup (Array.copy key) ]
  | Ins { full } -> Snap.List [ Snap.Int 1; Snap.Delta (Delta.copy full) ]

let action_of_snap s =
  match Snap.to_list s with
  | [ tag; source; key ] when Snap.to_int tag = 0 ->
      Del { source = Snap.to_int source; key = Snap.to_tuple key }
  | [ tag; full ] when Snap.to_int tag = 1 ->
      Ins { full = Snap.to_delta full }
  | _ -> invalid_arg "Strobe: malformed action snapshot"

let snap_of_query q =
  Snap.List
    [ Algorithm.snap_of_entry q.entry; Snap.Partial (Partial.copy q.dv);
      Snap.ints q.pending; Snap.Int q.outstanding;
      Snap.List
        (List.map
           (fun (source, key) ->
             Snap.List [ Snap.Int source; Snap.Tup (Array.copy key) ])
           q.kill_keys);
      Snap.Int q.qid ]

let query_of_snap s =
  match Snap.to_list s with
  | [ entry; dv; pending; outstanding; kill_keys; qid ] ->
      { entry = Algorithm.entry_of_snap entry; dv = Snap.to_partial dv;
        pending = Snap.to_ints pending; outstanding = Snap.to_int outstanding;
        kill_keys =
          List.map
            (fun kk ->
              match Snap.to_list kk with
              | [ source; key ] -> (Snap.to_int source, Snap.to_tuple key)
              | _ -> invalid_arg "Strobe: malformed kill key snapshot")
            (Snap.to_list kill_keys);
        qid = Snap.to_int qid; span = Tracer.none; leg = Tracer.none }
  | _ -> invalid_arg "Strobe: malformed query snapshot"

(* The batch and query set are checkpointed in delivery order, keeping
   the encoding identical to the pre-deque representation. *)
let snapshot t =
  Snap.List
    [ Snap.List (List.rev_map snap_of_query t.rev_uqs);
      Snap.List (List.map snap_of_action t.rev_al);
      Snap.List (List.rev_map Algorithm.snap_of_entry t.rev_batch) ]

let restore ctx s =
  match Snap.to_list s with
  | [ uqs; rev_al; batch ] ->
      Keys.require_keys ~algorithm:"Strobe" ctx.Algorithm.view;
      { ctx; keys = Keys.index ctx.Algorithm.view;
        rev_uqs = List.rev_map query_of_snap (Snap.to_list uqs);
        rev_al = List.map action_of_snap (Snap.to_list rev_al);
        rev_batch =
          List.rev_map Algorithm.entry_of_snap (Snap.to_list batch) }
  | _ -> invalid_arg "Strobe: malformed snapshot"
