open Repro_relational
open Repro_sim
open Repro_protocol
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer
module Snap = Repro_durability.Snap

type install = Immediate | Global_txn

type preset = {
  name : string;
  compensate : bool;
  local_answers : bool;
  batch_max : int option;
  window : int;
  split : bool;
  install : install;
}

(* The two halves of the sweep order of Fig. 4: the sources left of [i]
   nearest first, and those right of it. *)
let left_of i = List.init i (fun k -> i - 1 - k)
let right_of ~n i = List.init (n - 1 - i) (fun k -> i + 1 + k)
let order ~n ~i = left_of i @ right_of ~n i

(* One sweep over part of the sources for the leg of source [src]: [dv]
   is ΔV so far, [temp] the TempView the outstanding query carried,
   [pending] the sources still to visit (in order), [outstanding] the
   source queried now (-1 when none). *)
type frame = {
  src : int;
  mutable dv : Partial.t;
  mutable temp : Partial.t;
  mutable pending : int list;
  mutable outstanding : int;
  qid : int;
  mutable span : Tracer.id; (* lint: allow L5 volatile span ids: never checkpointed, Tracer.none after a crash restore (recovery truncates the span tree) *)
  mutable query : Tracer.id;
}

(* The work one install covers. [combined] holds the per-source deltas
   (ascending source; every source of the batch, net-empty ones included,
   because right-leg correction needs D_j for every j); [legs] the legs
   not yet started; [frames] the leg in flight; [acc] the summed view
   delta of the finished legs. *)
type batch = {
  entries : Update_queue.entry list;  (* delivery order *)
  combined : (int * Delta.t) list;
  mutable legs : (int * Delta.t) list;
  mutable frames : frame list;
  mutable acc : Delta.t option;
  mutable span : Tracer.id; (* lint: allow L5 volatile span id, like the frames': Tracer.none after restore *)
}

(* Global-transaction ledger (install = Global_txn): the parts still
   missing per open transaction, and the install buffer held back while
   any is open. Always empty under Immediate installs. *)
type ledger = {
  open_txns : (int, int) Hashtbl.t;
  mutable buffered : Delta.t;
  mutable rev_buffered : Update_queue.entry list;  (* newest first *)
}

type t = {
  ctx : Algorithm.ctx;
  p : preset;
  mutable batches : batch list;  (* in flight, delivery order; ≤ window *)
  mutable aborted : int list;
      (* qids of frames aborted by a breaker trip: their late answers are
         dropped, not errors *)
  mutable stall_mark : int;
      (* highest arrival number already counted in [stalled_updates] *)
  ledger : ledger;
}

let trace t fmt =
  Trace.emit t.ctx.Algorithm.trace ~time:(Engine.now t.ctx.engine)
    ~who:"warehouse" fmt

let source (e : Update_queue.entry) = e.update.Message.txn.Message.source

let txn_label (e : Update_queue.entry) =
  Format.asprintf "%a" Message.pp_txn_id e.update.Message.txn

let batched t = t.p.batch_max <> None

(* Degraded mode is for shapes with one frame in flight: an abort then
   only ever discards one query. *)
let parks t = t.p.window = 1 && not t.p.split

let pp_batch ppf (b : batch) =
  match b.entries with
  | [ e ] ->
      Format.fprintf ppf "ViewChange(%a)" Message.pp_txn_id e.update.Message.txn
  | es -> Format.fprintf ppf "batch of %d update(s)" (List.length es)

(* Legs answerable from the aux store need no round trip and no
   correction: the projections advance at install time, so they hold
   exactly the state a corrected remote answer reflects. *)
let local t j = t.p.local_answers && Aux_store.answers t.ctx.Algorithm.aux j

(* ————— degraded mode (DESIGN.md §12) ————— *)

(* An update sweeps every other source, so it may start only while all
   of them have closed breakers or are answered locally. *)
let eligible t (e : Update_queue.entry) =
  List.for_all
    (fun j -> t.ctx.Algorithm.source_ok j || local t j)
    (order ~n:(View_def.n_sources t.ctx.view) ~i:(source e))

(* Parked entries stay in the queue, visible to the interference scan: a
   sweep that overtakes them still subtracts their effect, so each cross
   term is counted once and replay-after-heal converges. Each parked
   entry is counted in [stalled_updates] once (monotone arrival mark). *)
let note_parked t =
  let parked = ref 0 in
  List.iter
    (fun (e : Update_queue.entry) ->
      if not (eligible t e) then begin
        incr parked;
        if e.arrival > t.stall_mark then begin
          t.stall_mark <- e.arrival;
          t.ctx.metrics.Metrics.stalled_updates <-
            t.ctx.metrics.Metrics.stalled_updates + 1;
          if Obs.active t.ctx.obs then
            Obs.event t.ctx.obs (t.p.name ^ ".park")
              [ ("txn", Tracer.S (txn_label e)) ]
        end
      end)
    (Update_queue.entries t.ctx.queue);
  !parked

(* The next batch's entries: the oldest eligible ones while degraded,
   falling back to blocking on the dead source at the stall cap. *)
let take t =
  let max = Option.value t.p.batch_max ~default:1 in
  let parked = if parks t then note_parked t else 0 in
  if parked = 0 || parked >= t.ctx.Algorithm.stall_cap then
    Update_queue.take t.ctx.queue ~max
  else Update_queue.take_eligible t.ctx.queue ~max ~eligible:(eligible t)

(* ————— batches, legs and frames ————— *)

let combine t entries =
  match t.p.batch_max with
  | None ->
      List.map (fun e -> (source e, e.Update_queue.update.Message.delta)) entries
  | Some _ ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun e ->
          let d =
            match Hashtbl.find_opt tbl (source e) with
            | Some d -> d
            | None ->
                let d = Delta.empty () in
                Hashtbl.replace tbl (source e) d;
                d
          in
          Bag.merge_into ~into:d e.Update_queue.update.Message.delta)
        entries;
      Hashtbl.fold (fun i d acc -> (i, d) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let open_batch t entries =
  let combined = combine t entries in
  let legs =
    if batched t then
      List.filter (fun (_, d) -> not (Delta.is_empty d)) combined
    else combined
  in
  let size = List.length entries in
  if batched t then Metrics.note_batch t.ctx.metrics size;
  let span =
    if not (Obs.active t.ctx.obs) then Tracer.none
    else if batched t then
      Obs.span t.ctx.obs (t.p.name ^ ".batch")
        [ ("updates", Tracer.I size); ("legs", Tracer.I (List.length legs)) ]
    else
      Obs.span t.ctx.obs (t.p.name ^ ".txn")
        (("txn", Tracer.S (String.concat "," (List.map txn_label entries)))
        :: (if t.p.window > 1 then
              [ ("depth", Tracer.I (List.length t.batches + 1)) ]
            else []))
  in
  if batched t then Obs.observe t.ctx.obs "batch_size" (float_of_int size);
  { entries; combined; legs; frames = []; acc = None; span }

let frame_done (f : frame) = f.pending = [] && f.outstanding < 0

(* Where a frame's queries and events hang: its own span, or the
   batch's when the frame is the batch's only sweep. *)
let parent (b : batch) (f : frame) =
  if f.span = Tracer.none then b.span else f.span

(* Progress frame [f]: answer legs from the aux store while it can, then
   send the next query. A frame that runs out of sources closes its
   span. *)
let rec step t b (f : frame) =
  match f.pending with
  | [] -> Obs.finish t.ctx.obs f.span
  | j :: rest -> (
      f.pending <- rest;
      match
        if local t j then
          (* a left-leg source contributes its new state R_j + D_j: overlay
             the batch's own delta, which the projection does not hold yet *)
          Algorithm.local_answer t.ctx ~name:t.p.name ~span:(parent b f)
            ~target:j ~partial:f.dv
            ~overlay:
              (match List.assoc_opt j b.combined with
              | Some d when j < f.src -> d
              | _ -> Delta.empty ())
            ()
        else None
      with
      | Some dv ->
          f.dv <- dv;
          step t b f
      | None ->
          f.outstanding <- j;
          f.temp <- f.dv;
          f.query <-
            (if Obs.active t.ctx.obs then
               Obs.span t.ctx.obs ~parent:(parent b f) "query"
                 [ ("source", Tracer.I j); ("qid", Tracer.I f.qid) ]
             else Tracer.none);
          t.ctx.send j
            (Message.Sweep_query
               { qid = f.qid; target = j; partial = Partial.copy f.dv }))

(* Start the batch's next leg, if any: one frame over the sweep order, or
   a left and a right frame when split. *)
let rec start_leg t (b : batch) =
  match b.legs with
  | [] -> ()
  | (src, delta) :: rest ->
      b.legs <- rest;
      let view = t.ctx.Algorithm.view in
      let n = View_def.n_sources view in
      let frame pending d =
        let dv = Partial.of_source_delta view src d in
        { src; dv; temp = dv; pending; outstanding = -1;
          qid = t.ctx.fresh_qid (); span = Tracer.none; query = Tracer.none }
      in
      b.frames <-
        (if t.p.split then
           (* the right sweep starts from a unit-count copy of ΔR, so the
              merge multiplies counts correctly *)
           let left = frame (left_of src) delta in
           let right = frame (right_of ~n src) (Delta.distinct delta) in
           [ left; right ]
         else [ frame (order ~n ~i:src) delta ]);
      (if Obs.active t.ctx.obs then
         match b.frames with
         | [ l; r ] ->
             l.span <-
               Obs.span t.ctx.obs ~parent:b.span "left"
                 [ ("hops", Tracer.I (List.length l.pending)) ];
             r.span <-
               Obs.span t.ctx.obs ~parent:b.span "right"
                 [ ("hops", Tracer.I (List.length r.pending)) ]
         | [ f ] when batched t ->
             f.span <-
               Obs.span t.ctx.obs ~parent:b.span "leg"
                 [ ("source", Tracer.I src); ("qid", Tracer.I f.qid) ]
         | _ -> ());
      List.iter (step t b) b.frames;
      advance t b

(* Once every frame of the leg is done, fold its view delta into the
   batch total and move on to the next leg. *)
and advance t b =
  match b.frames with
  | [ f ] when frame_done f -> finish_leg t b f.dv
  | [ l; r ] when frame_done l && frame_done r ->
      finish_leg t b
        (Algebra.merge_overlap t.ctx.Algorithm.view ~at:l.src ~left:l.dv
           ~right:r.dv)
  | _ -> ()

and finish_leg t b dv =
  let view_delta = Algebra.select_project t.ctx.Algorithm.view dv in
  b.acc <-
    Some
      (match b.acc with
      | None -> view_delta
      | Some acc ->
          Bag.merge_into ~into:acc view_delta;
          acc);
  b.frames <- [];
  start_leg t b

let complete (b : batch) = b.legs = [] && b.frames = []

(* ————— install ————— *)

(* Account one processed update against its global transaction. *)
let note_part ledger (e : Update_queue.entry) =
  match e.update.Message.global with
  | None -> ()
  | Some { Message.gid; parts } ->
      let remaining =
        Option.value (Hashtbl.find_opt ledger.open_txns gid) ~default:parts - 1
      in
      if remaining = 0 then Hashtbl.remove ledger.open_txns gid
      else Hashtbl.replace ledger.open_txns gid remaining

let install t (b : batch) =
  let delta = match b.acc with Some d -> d | None -> Delta.empty () in
  trace t "%s: %a yields %a" t.p.name pp_batch b Delta.pp delta;
  (match t.p.install with
  | Immediate -> t.ctx.install delta ~txns:b.entries
  | Global_txn ->
      let l = t.ledger in
      List.iter (note_part l) b.entries;
      Bag.merge_into ~into:l.buffered delta;
      l.rev_buffered <- List.rev_append b.entries l.rev_buffered;
      if Hashtbl.length l.open_txns = 0 then begin
        let delta = l.buffered and entries = List.rev l.rev_buffered in
        l.buffered <- Delta.empty ();
        l.rev_buffered <- [];
        t.ctx.install delta ~txns:entries
      end);
  Obs.finish t.ctx.obs b.span

(* Install finished batches in delivery order, then top the window up
   from the queue (the UpdateView process of Fig. 4). *)
let rec settle t =
  match t.batches with
  | b :: rest when complete b ->
      t.batches <- rest;
      install t b;
      settle t
  | _ -> (
      if List.compare_length_with t.batches t.p.window < 0 then
        match take t with
        | [] -> ()
        | entries ->
            let b = open_batch t entries in
            t.batches <- t.batches @ [ b ]; (* lint: allow L3 the in-flight list is bounded by the preset's window *)
            start_leg t b;
            settle t)

(* ————— answers ————— *)

let rec entries_from j = function
  | [] -> []
  | b :: rest ->
      List.filter (fun e -> source e = j) b.entries @ entries_from j rest

(* Updates from [j] in the batches in flight after [b]: they serialize
   after [b], yet [j] applied them before answering. *)
let rec later_from b j = function
  | [] -> []
  | b' :: rest -> if b' == b then entries_from j rest else later_from b j rest

(* On-line error correction (paper §4, generalised as in the interface
   comment): subtract ΔR_j ⋈ TempView for every update reflected in the
   answer that the frame must not see. *)
let correct t b (f : frame) j partial =
  let updates =
    if t.p.compensate then
      later_from b j t.batches @ Update_queue.from_source t.ctx.queue j
    else []
  in
  let own =
    match List.assoc_opt j b.combined with
    | Some d when t.p.compensate && j > f.src -> [ d ]
    | _ -> []
  in
  let parts =
    own
    @ List.map (fun (e : Update_queue.entry) -> e.update.Message.delta) updates
  in
  let interfering =
    match parts with
    | [] -> None
    | _ ->
        let d = Delta.sum parts in
        (* a batch sweeps net deltas, so a net-empty correction is none *)
        if batched t && Delta.is_empty d then None else Some d
  in
  match interfering with
  | None -> f.dv <- partial
  | Some interfering ->
      t.ctx.metrics.Metrics.compensations <-
        t.ctx.metrics.Metrics.compensations + 1;
      trace t "compensate answer from %d for %d interfering update(s)" j
        (List.length updates);
      if Obs.active t.ctx.obs then
        Obs.event t.ctx.obs ~span:(parent b f) "compensate"
          [ ("source", Tracer.I j);
            ("interfering", Tracer.I (List.length updates)) ];
      f.dv <-
        Algebra.compensate t.ctx.view ~answer:partial ~interfering ~temp:f.temp

(* The in-flight frame waiting for answer [qid] from [j], with its
   batch. *)
let rec find_frame qid j = function
  | [] -> None
  | b :: rest -> (
      match
        List.find_opt (fun f -> f.qid = qid && f.outstanding = j) b.frames
      with
      | Some f -> Some (b, f)
      | None -> find_frame qid j rest)

let on_answer t msg =
  match msg with
  | Message.Answer { qid; source = j; partial } -> (
      match find_frame qid j t.batches with
      | Some (b, f) ->
          f.outstanding <- -1;
          Obs.finish t.ctx.obs f.query;
          f.query <- Tracer.none;
          correct t b f j partial;
          step t b f;
          advance t b;
          settle t
      | None when List.mem qid t.aborted ->
          (* late answer for a breaker-aborted frame (the stale query
             doubled as the recovery probe): its batch went back to the
             queue and re-runs with fresh qids *)
          t.aborted <- List.filter (fun q -> q <> qid) t.aborted;
          trace t "%s: dropped answer for aborted qid=%d from %d" t.p.name qid
            j;
          settle t
      | None ->
          invalid_arg
            (Printf.sprintf "%s: unexpected answer qid=%d from %d" t.p.name
               qid j))
  | Message.Snapshot _ | Message.Eca_answer _ | Message.Update_notice _ ->
      invalid_arg (t.p.name ^ ": unexpected message kind")

(* ————— breakers ————— *)

(* Does any unfinished work of [b] query source [j]? Every leg for a
   source other than [j] sweeps it — unless it is answered locally. *)
let needs t (b : batch) j =
  List.exists
    (fun f -> f.outstanding = j || (List.mem j f.pending && not (local t j)))
    b.frames
  || ((not (local t j)) && List.exists (fun (src, _) -> src <> j) b.legs)

(* Source [j]'s breaker opened. If the batch in flight still needs [j],
   abort it: discard its partial work, return its entries to the head
   of the queue (delivery order, arrival numbers intact) and remember
   the outstanding qids so their late answers are dropped. Nothing was
   installed, so the re-run recomputes from scratch through the normal
   correction path. *)
let on_source_down t j =
  (match t.batches with
  | b :: _ when parks t && needs t b j ->
      List.iter
        (fun f ->
          if f.outstanding >= 0 then t.aborted <- f.qid :: t.aborted;
          Obs.finish t.ctx.obs f.query;
          Obs.finish t.ctx.obs f.span)
        b.frames;
      List.iter (Update_queue.push_front t.ctx.queue) (List.rev b.entries);
      t.batches <- [];
      trace t "%s: abort %a — source %d tripped" t.p.name pp_batch b j;
      if Obs.active t.ctx.obs then
        Obs.event t.ctx.obs ~span:b.span (t.p.name ^ ".abort")
          [ ("source", Tracer.I j);
            ("updates", Tracer.I (List.length b.entries)) ];
      Obs.finish t.ctx.obs b.span
  | _ -> ());
  (* other queued updates may still be eligible *)
  settle t

(* Source [j] healed: parked entries are eligible again; replay them
   (oldest first) through the normal path. *)
let on_source_up t (_ : int) = settle t

let on_update t (_ : Update_queue.entry) = settle t

let idle t =
  t.batches = []
  && Update_queue.is_empty t.ctx.queue
  && Hashtbl.length t.ledger.open_txns = 0
  && t.ledger.rev_buffered = []

let create p ctx =
  (match p.batch_max with
  | Some k when k < 1 -> invalid_arg (p.name ^ ": batch_max must be >= 1")
  | _ -> ());
  if p.window < 1 then invalid_arg (p.name ^ ": window must be >= 1");
  { ctx; p; batches = []; aborted = []; stall_mark = -1;
    ledger =
      { open_txns = Hashtbl.create 8; buffered = Delta.empty ();
        rev_buffered = [] } }

(* ————— checkpoint codec ————— *)

let snap_of_frame (f : frame) =
  Snap.List
    [ Snap.Int f.src; Snap.Partial (Partial.copy f.dv);
      Snap.Partial (Partial.copy f.temp); Snap.ints f.pending;
      Snap.Int f.outstanding; Snap.Int f.qid ]

let frame_of_snap s =
  match Snap.to_list s with
  | [ src; dv; temp; pending; outstanding; qid ] ->
      { src = Snap.to_int src; dv = Snap.to_partial dv;
        temp = Snap.to_partial temp; pending = Snap.to_ints pending;
        outstanding = Snap.to_int outstanding; qid = Snap.to_int qid;
        span = Tracer.none; query = Tracer.none }
  | _ -> invalid_arg "Sweep_engine: malformed frame snapshot"

(* [combined] is a function of the entries, so it is recomputed. *)
let snap_of_batch (b : batch) =
  Snap.List
    [ Snap.List (List.map Algorithm.snap_of_entry b.entries);
      Snap.List
        (List.map
           (fun (i, d) -> Snap.List [ Snap.Int i; Snap.Delta (Delta.copy d) ])
           b.legs);
      Snap.option (fun d -> Snap.Delta (Delta.copy d)) b.acc;
      Snap.List (List.map snap_of_frame b.frames) ]

let batch_of_snap t s =
  match Snap.to_list s with
  | [ entries; legs; acc; frames ] ->
      let entries = List.map Algorithm.entry_of_snap (Snap.to_list entries) in
      { entries; combined = combine t entries;
        legs =
          List.map
            (fun l ->
              match Snap.to_list l with
              | [ i; d ] -> (Snap.to_int i, Snap.to_delta d)
              | _ -> invalid_arg "Sweep_engine: malformed leg snapshot")
            (Snap.to_list legs);
        acc = Snap.to_option Snap.to_delta acc;
        frames = List.map frame_of_snap (Snap.to_list frames);
        span = Tracer.none }
  | _ -> invalid_arg "Sweep_engine: malformed batch snapshot"

(* Canonical: open transactions sorted by gid. *)
let snap_of_ledger l =
  Snap.List
    [ Snap.List
        (Hashtbl.fold (fun gid r acc -> (gid, r) :: acc) l.open_txns []
        |> List.sort compare
        |> List.map (fun (gid, r) -> Snap.ints [ gid; r ]));
      Snap.Delta (Delta.copy l.buffered);
      Snap.List (List.rev_map Algorithm.snap_of_entry l.rev_buffered) ]

let restore_ledger l s =
  match Snap.to_list s with
  | [ open_txns; buffered; entries ] ->
      List.iter
        (fun pair ->
          match Snap.to_ints pair with
          | [ gid; r ] -> Hashtbl.replace l.open_txns gid r
          | _ -> invalid_arg "Sweep_engine: malformed ledger snapshot")
        (Snap.to_list open_txns);
      l.buffered <- Snap.to_delta buffered;
      l.rev_buffered <-
        List.rev_map Algorithm.entry_of_snap (Snap.to_list entries)
  | _ -> invalid_arg "Sweep_engine: malformed ledger snapshot"

let snapshot t =
  Snap.List
    [ Snap.List (List.map snap_of_batch t.batches);
      Snap.ints t.aborted; Snap.Int t.stall_mark; snap_of_ledger t.ledger ]

let restore p ctx s =
  match Snap.to_list s with
  | [ batches; aborted; stall_mark; ledger ] ->
      let t = create p ctx in
      t.batches <- List.map (batch_of_snap t) (Snap.to_list batches);
      t.aborted <- Snap.to_ints aborted;
      t.stall_mark <- Snap.to_int stall_mark;
      restore_ledger t.ledger ledger;
      t
  | _ -> invalid_arg (p.name ^ ": malformed snapshot")

let algorithm p : (module Algorithm.S) =
  (module struct
    type nonrec t = t

    let name = p.name
    let create = create p
    let on_update = on_update
    let on_answer = on_answer
    let on_source_down = on_source_down
    let on_source_up = on_source_up
    let idle = idle
    let snapshot = snapshot
    let restore = restore p
  end)
