open Repro_relational
open Repro_sim
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer

let name = "c-strobe"

(* One (possibly compensating) query: the chain join with [pins] replacing
   the pinned sources' relations. [pin_ids] (sorted arrival numbers, the
   initial update itself included) identify the pin set so each distinct
   compensation is sent at most once. *)
type job = {
  pins : (int * Delta.t) list;
  pin_ids : int list;
  mutable dv : Partial.t;
  mutable pending : int list;  (* next positions to incorporate, in order *)
  mutable outstanding : int;
  qid : int;
  mutable span : Tracer.id; (* lint: allow L5 volatile span ids: never checkpointed, Tracer.none after restore *)
  mutable leg : Tracer.id;
}

type current = {
  entry : Update_queue.entry;
  mutable jobs : job list;
  spawned : (int list, unit) Hashtbl.t;  (* pin-id sets already issued *)
  mutable answer : Partial.t option;  (* full-width accumulator *)
  mutable killed : (int, unit) Hashtbl.t;  (* arrivals already key-killed *)
  mutable kills : (int * Tuple.t) list;  (* (source, key) kills to apply *)
  mutable finished : bool;  (* finalize-once guard *)
  delete_view_delta : Delta.t;  (* local handling of the delete part *)
  (* lint: allow L5 volatile span id, like the jobs': Tracer.none after restore *)
  mutable span : Tracer.id;
}

type t = {
  ctx : Algorithm.ctx;
  keys : Keys.index;
  mutable current : current option;
}

let create ctx =
  Keys.require_keys ~algorithm:"C-strobe" ctx.Algorithm.view;
  { ctx; keys = Keys.index ctx.view; current = None }

let trace t fmt =
  Trace.emit t.ctx.Algorithm.trace ~time:(Engine.now t.ctx.engine)
    ~who:"warehouse" fmt

(* Positions a job must incorporate, sweeping out from its lowest pin. *)
let job_order ~n ~start =
  let left = List.init start (fun k -> start - 1 - k) in
  let right = List.init (n - 1 - start) (fun k -> start + 1 + k) in
  left @ right

let make_job t ~pins ~pin_ids =
  let n = View_def.n_sources t.ctx.Algorithm.view in
  let start, start_delta =
    match List.sort (fun (a, _) (b, _) -> Int.compare a b) pins with
    | (s, d) :: _ -> (s, d)
    | [] -> invalid_arg "C_strobe.make_job: no pins"
  in
  { pins; pin_ids;
    dv = Partial.of_source_delta t.ctx.Algorithm.view start start_delta;
    pending = job_order ~n ~start; outstanding = -1;
    qid = t.ctx.Algorithm.fresh_qid (); span = Tracer.none;
    leg = Tracer.none }

let rec advance t cur job =
  match job.pending with
  | j :: rest -> (
      job.pending <- rest;
      match List.assoc_opt j job.pins with
      | Some pin ->
          (* Pinned position: joined locally, no message. *)
          let pp = Partial.of_source_delta t.ctx.view j pin in
          job.dv <-
            (if j < job.dv.Partial.lo then Algebra.join t.ctx.view pp job.dv
             else Algebra.join t.ctx.view job.dv pp);
          advance t cur job
      | None ->
          job.outstanding <- j;
          job.leg <-
            (if Obs.active t.ctx.obs then
               Obs.span t.ctx.obs ~parent:job.span "query"
                 [ ("source", Tracer.I j); ("qid", Tracer.I job.qid) ]
             else Tracer.none);
          t.ctx.send j
            (Message.Sweep_query
               { qid = job.qid; target = j; partial = Partial.copy job.dv }))
  | [] -> complete t cur job

and complete t cur job =
  Obs.finish t.ctx.obs job.span;
  cur.jobs <- List.filter (fun j -> j.qid <> job.qid) cur.jobs;
  cur.answer <-
    Some
      (match cur.answer with
      | None -> job.dv
      | Some a -> Partial.add a job.dv);
  (* Conservative concurrency scan: every queued update delivered after
     the one being processed. *)
  let concurrent =
    List.filter
      (fun e -> e.Update_queue.arrival > cur.entry.Update_queue.arrival)
      (Update_queue.entries t.ctx.queue)
  in
  let children = ref [] in
  List.iter
    (fun e ->
      let d = e.Update_queue.update.Message.delta in
      let src = e.Update_queue.update.Message.txn.source in
      (* Concurrent inserts: key-delete from the accumulated answer (once
         per concurrent update). *)
      if not (Hashtbl.mem cur.killed e.arrival) then begin
        Hashtbl.replace cur.killed e.arrival ();
        Delta.iter
          (fun tup c ->
            if c > 0 then
              cur.kills <-
                (src, Keys.source_tuple_key t.ctx.view src tup) :: cur.kills)
          d
      end;
      (* Concurrent deletes: compensating query with the deleted tuples
         pinned in, for every pin set not yet issued. *)
      let dels = Delta.negative_part d in
      if
        (not (Delta.is_empty dels))
        && (not (List.mem_assoc src job.pins))
        && not (List.mem e.arrival job.pin_ids)
      then begin
        let pin_ids = List.sort Int.compare (e.arrival :: job.pin_ids) in
        if not (Hashtbl.mem cur.spawned pin_ids) then begin
          Hashtbl.replace cur.spawned pin_ids ();
          let child =
            make_job t ~pins:((src, dels) :: job.pins) ~pin_ids
          in
          trace t "c-strobe: compensating query %d (pins %s)" child.qid
            (String.concat "," (List.map string_of_int pin_ids));
          if Obs.active t.ctx.obs then
            child.span <-
              Obs.span t.ctx.obs ~parent:cur.span "job"
                [ ("qid", Tracer.I child.qid);
                  ("pins", Tracer.I (List.length child.pins));
                  ("compensating", Tracer.B true) ];
          children := child :: !children
        end
      end)
    concurrent;
  (* Register every child before advancing any: a fully-pinned child
     completes synchronously and must not observe an empty job set and
     finalize prematurely. *)
  let children = List.rev !children in
  cur.jobs <- children @ cur.jobs;
  List.iter (fun child -> advance t cur child) children;
  if cur.jobs = [] && not cur.finished then begin
    cur.finished <- true;
    finalize t cur
  end

and finalize t cur =
  let view = t.ctx.view in
  let o =
    Keys.overlay t.keys ~contents:(t.ctx.view_contents ())
      ~base:cur.delete_view_delta ()
  in
  (match cur.answer with
  | None -> ()
  | Some a ->
      let full = a.Partial.data in
      let by_source = Hashtbl.create 8 in
      List.iter
        (fun (src, key) ->
          let tbl =
            match Hashtbl.find_opt by_source src with
            | Some tbl -> tbl
            | None ->
                let tbl = Hashtbl.create 4 in
                Hashtbl.replace by_source src tbl;
                tbl
          in
          Hashtbl.replace tbl key ())
        cur.kills;
      Hashtbl.iter
        (fun src keys -> Keys.kill_full view ~full ~source:src ~keys)
        by_source;
      let view_delta =
        Algebra.select_project view
          { Partial.lo = 0; hi = View_def.n_sources view - 1; data = full }
      in
      (* Duplicate suppression: the keys make any already-present tuple a
         duplicate derivation. *)
      Delta.iter (fun tup c -> if c > 0 then Keys.insert_once o tup) view_delta);
  let delta = Keys.commit o in
  let entry = cur.entry in
  t.current <- None;
  t.ctx.install delta ~txns:[ entry ];
  Obs.finish t.ctx.obs cur.span;
  start_next t

and start_next t =
  match t.current with
  | Some _ -> ()
  | None -> (
      match Update_queue.pop t.ctx.queue with
      | None -> ()
      | Some entry ->
          let view = t.ctx.view in
          let i = entry.update.Message.txn.source in
          let delta = entry.update.Message.delta in
          let deletes = Delta.negative_part delta in
          let inserts = Delta.positive_part delta in
          (* Deletes are applied locally by key (C-strobe's optimization):
             build the view-level deletion now, against the current
             contents. It is installed by [finalize], so the overlay is
             not committed here. *)
          let deletion =
            Keys.overlay t.keys ~contents:(t.ctx.view_contents ()) ()
          in
          Delta.iter
            (fun tup _ ->
              Keys.delete_key deletion ~source:i
                ~key:(Keys.source_tuple_key view i tup))
            deletes;
          let delete_view_delta = Keys.delta deletion in
          let span =
            if Obs.active t.ctx.obs then
              Obs.span t.ctx.obs "c-strobe.txn"
                [ ("txn",
                   Tracer.S
                     (Format.asprintf "%a" Message.pp_txn_id
                        entry.update.Message.txn)) ]
            else Tracer.none
          in
          let cur =
            { entry; jobs = []; spawned = Hashtbl.create 32; answer = None;
              killed = Hashtbl.create 8; kills = []; finished = false;
              delete_view_delta; span }
          in
          t.current <- Some cur;
          if Delta.is_empty inserts then begin
            cur.finished <- true;
            finalize t cur
          end
          else begin
            let job =
              make_job t ~pins:[ (i, inserts) ] ~pin_ids:[ entry.arrival ]
            in
            if Obs.active t.ctx.obs then
              job.span <-
                Obs.span t.ctx.obs ~parent:cur.span "job"
                  [ ("qid", Tracer.I job.qid);
                    ("pins", Tracer.I 1) ];
            Hashtbl.replace cur.spawned [ entry.arrival ] ();
            cur.jobs <- [ job ];
            advance t cur job
          end)

let on_update t (_ : Update_queue.entry) = start_next t

let on_answer t msg =
  match (msg, t.current) with
  | Message.Answer { qid; source = j; partial }, Some cur -> (
      match List.find_opt (fun job -> job.qid = qid) cur.jobs with
      | Some job when job.outstanding = j ->
          job.outstanding <- -1;
          Obs.finish t.ctx.obs job.leg;
          job.leg <- Tracer.none;
          job.dv <- partial;
          advance t cur job
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "C_strobe.on_answer: unexpected answer qid=%d" qid))
  | Message.Answer _, None ->
      invalid_arg "C_strobe.on_answer: answer with no update in progress"
  | (Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _), _ ->
      invalid_arg "C_strobe.on_answer: unexpected message kind"

let on_source_down _ _ = ()
let on_source_up _ _ = ()
let idle t = t.current = None && Update_queue.is_empty t.ctx.queue

module Snap = Repro_durability.Snap

let snap_of_job job =
  Snap.List
    [ Snap.List
        (List.map
           (fun (src, d) ->
             Snap.List [ Snap.Int src; Snap.Delta (Delta.copy d) ])
           job.pins);
      Snap.ints job.pin_ids; Snap.Partial (Partial.copy job.dv);
      Snap.ints job.pending; Snap.Int job.outstanding; Snap.Int job.qid ]

let job_of_snap s =
  match Snap.to_list s with
  | [ pins; pin_ids; dv; pending; outstanding; qid ] ->
      { pins =
          List.map
            (fun p ->
              match Snap.to_list p with
              | [ src; d ] -> (Snap.to_int src, Snap.to_delta d)
              | _ -> invalid_arg "C_strobe: malformed pin snapshot")
            (Snap.to_list pins);
        pin_ids = Snap.to_ints pin_ids; dv = Snap.to_partial dv;
        pending = Snap.to_ints pending; outstanding = Snap.to_int outstanding;
        qid = Snap.to_int qid; span = Tracer.none; leg = Tracer.none }
  | _ -> invalid_arg "C_strobe: malformed job snapshot"

(* Canonical hashtable dumps: spawned pin-id sets and killed arrivals
   sorted so equal states encode identically. *)
let snap_of_current cur =
  let spawned =
    Hashtbl.fold (fun ids () acc -> ids :: acc) cur.spawned []
    |> List.sort compare |> List.map Snap.ints
  in
  let killed =
    Hashtbl.fold (fun a () acc -> a :: acc) cur.killed []
    |> List.sort Int.compare
  in
  Snap.List
    [ Algorithm.snap_of_entry cur.entry;
      Snap.List (List.map snap_of_job cur.jobs); Snap.List spawned;
      Snap.option (fun a -> Snap.Partial (Partial.copy a)) cur.answer;
      Snap.ints killed;
      Snap.List
        (List.map
           (fun (src, key) ->
             Snap.List [ Snap.Int src; Snap.Tup (Array.copy key) ])
           cur.kills);
      Snap.Bool cur.finished; Snap.Delta (Delta.copy cur.delete_view_delta) ]

let current_of_snap s =
  match Snap.to_list s with
  | [ entry; jobs; spawned; answer; killed; kills; finished; dvd ] ->
      let spawned_tbl = Hashtbl.create 32 in
      List.iter
        (fun ids -> Hashtbl.replace spawned_tbl (Snap.to_ints ids) ())
        (Snap.to_list spawned);
      let killed_tbl = Hashtbl.create 8 in
      List.iter (fun a -> Hashtbl.replace killed_tbl a ()) (Snap.to_ints killed);
      { entry = Algorithm.entry_of_snap entry;
        jobs = List.map job_of_snap (Snap.to_list jobs); spawned = spawned_tbl;
        answer = Snap.to_option Snap.to_partial answer; killed = killed_tbl;
        kills =
          List.map
            (fun k ->
              match Snap.to_list k with
              | [ src; key ] -> (Snap.to_int src, Snap.to_tuple key)
              | _ -> invalid_arg "C_strobe: malformed kill snapshot")
            (Snap.to_list kills);
        finished = Snap.to_bool finished;
        delete_view_delta = Snap.to_delta dvd; span = Tracer.none }
  | _ -> invalid_arg "C_strobe: malformed current snapshot"

let snapshot t = Snap.option snap_of_current t.current

let restore ctx s =
  Keys.require_keys ~algorithm:"C-strobe" ctx.Algorithm.view;
  { ctx; keys = Keys.index ctx.Algorithm.view;
    current = Snap.to_option current_of_snap s }
