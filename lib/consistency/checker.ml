open Repro_relational
open Repro_protocol

type verdict = Complete | Strong | Convergent | Degraded | Inconsistent

let verdict_to_string = function
  | Complete -> "complete"
  | Strong -> "strong"
  | Convergent -> "convergent"
  | Degraded -> "degraded"
  | Inconsistent -> "INCONSISTENT"

let pp_verdict ppf v = Format.pp_print_string ppf (verdict_to_string v)

let rank = function
  | Complete -> 0
  | Strong -> 1
  | Convergent -> 2
  | Degraded -> 3
  | Inconsistent -> 4

let compare_verdict a b = Int.compare (rank a) (rank b)

type observation = {
  initial_sources : Relation.t array;
  deliveries : Message.update list;
  installs : (Message.txn_id list * Bag.t) list;
  final_view : Bag.t;
}

type result = { verdict : verdict; detail : string; states_checked : int }

(* ————— replicas: the checker's own indexed copy of every source ————— *)

type replica = {
  rel : Relation.t;
  mutable indexes : Col_index.t list;
      (* built the first time a column is probed, then kept exact on
         every replayed ΔRi *)
}

let probe r ~col ~value =
  let idx =
    match Col_index.find r.indexes col with
    | Some idx -> idx
    | None ->
        let idx =
          Col_index.create ~initial_size:(max 16 (Relation.cardinal r.rel)) col
        in
        Col_index.add_bag idx (Relation.as_bag r.rel);
        r.indexes <- idx :: r.indexes;
        idx
  in
  Col_index.probe idx value

let apply_delta rel delta =
  match Relation.apply rel delta with
  | Ok () -> ()
  | Error _ ->
      invalid_arg "Checker: delivery log contains a delete of absent tuples"

(* The replayed database: one replica per source plus the expected view
   over their current contents. *)
type replay = { view : View_def.t; replicas : replica array; expected : Bag.t }

let replay_start view initial =
  { view;
    replicas =
      Array.map (fun r -> { rel = Relation.copy r; indexes = [] }) initial;
    expected =
      Bag.copy (Relation.as_bag (Algebra.eval view (fun i -> initial.(i)))) }

(* One leg of the replayed sweep probes the replica's index; only a
   cross-product junction, with no column to probe, joins the whole
   relation. *)
let leg st j (p : Partial.t) =
  let r = st.replicas.(j) in
  match Algebra.extend_with_probe st.view p ~source:j ~probe:(probe r) with
  | Some p -> p
  | None -> Algebra.extend st.view p ~with_relation:(j, r.rel)

(* Apply one update to the replayed database, maintaining the expected view
   incrementally: ΔV = R0 ⋈ … ⋈ ΔRi ⋈ … ⋈ R(n-1) evaluated on the current
   state, then ΔRi is applied to Ri and its indexes. *)
let replay_txn st (u : Message.update) =
  let i = u.Message.txn.source in
  let n = View_def.n_sources st.view in
  let partial = ref (Partial.of_source_delta st.view i u.Message.delta) in
  for j = i - 1 downto 0 do
    partial := leg st j !partial
  done;
  for j = i + 1 to n - 1 do
    partial := leg st j !partial
  done;
  Bag.merge_into ~into:st.expected (Algebra.select_project st.view !partial);
  let r = st.replicas.(i) in
  apply_delta r.rel u.Message.delta;
  List.iter (fun idx -> Col_index.add_bag idx u.Message.delta) r.indexes

let expected_states view ~initial ~deliveries =
  let st = replay_start view initial in
  let states = Array.make (List.length deliveries + 1) st.expected in
  states.(0) <- Bag.copy st.expected;
  List.iteri
    (fun k u ->
      replay_txn st u;
      states.(k + 1) <- Bag.copy st.expected)
    deliveries;
  states

(* Convergence: the final view against one from-scratch [Algebra.eval]
   over the sources after every delivery — the hash-join path, an
   independent cross-check of the probed replay. *)
let converged view obs =
  let rels = Array.map Relation.copy obs.initial_sources in
  List.iter
    (fun (u : Message.update) ->
      apply_delta rels.(u.Message.txn.source) u.Message.delta)
    obs.deliveries;
  let final = Relation.as_bag (Algebra.eval view (fun i -> rels.(i))) in
  if Bag.equal final obs.final_view then Ok ()
  else Error "final view differs from the fully-updated database state"

(* ————— one pass over the installs grades every level ————— *)

type grades = {
  complete : (unit, string) Stdlib.result;
  strong : (unit, string) Stdlib.result;
  degraded : (unit, string) Stdlib.result;
}

(* Complete consistency: the installs partition the delivery log into
   contiguous runs, in delivery order, each installed state matching the
   database state after its run exactly. A singleton-per-delivery history
   (SWEEP) is the special case of all runs having length 1; a batched
   install (Sweep_batched, Nested SWEEP when its batch happens to be the
   full pending run) is complete iff it incorporates *exactly* the next
   deliveries with nothing skipped — every installed state is then a
   state the source databases actually passed through, in order, with no
   update ever reflected early or late.

   Strong consistency: batch installs allowed, provided each cumulative
   set is a per-source prefix of that source's update sequence and
   contents match the corresponding database state; all deliveries must
   eventually be incorporated.

   Degraded consistency: the run ended with circuit breakers still open,
   so some delivered updates were parked and never incorporated. The
   history must meet Strong's per-install conditions over the
   {e incorporated subset}, and the final view must equal the state
   reached by exactly the incorporated updates — the view is honest about
   what it reflects, it just is not done.

   All three replay each batch in delivery order, so while any of them is
   still alive they share one replay: a batch a live grade accepts is the
   same set, applied in the same order, for every live grade. Strong and
   Degraded differ only in their closing condition. [complete:false]
   skips Complete's bookkeeping: once convergence has failed, only
   Degraded is asked for. *)
let grade ~complete view obs =
  let n = View_def.n_sources view in
  let by_txn = Hashtbl.create 64 in
  List.iteri
    (fun k u -> Hashtbl.replace by_txn u.Message.txn (k, u))
    obs.deliveries;
  let n_deliveries = List.length obs.deliveries in
  let st = replay_start view obs.initial_sources in
  let applied = ref 0 in
  let next_seq = Array.make n 0 in
  let c_err = ref (if complete then None else Some "not graded") in
  let p_err = ref None in
  let fail err msg = if Option.is_none !err then err := Some msg in
  let rec go installs k =
    match installs with
    | [] -> ()
    | _ when Option.is_some !c_err && Option.is_some !p_err -> ()
    | (txns, snap) :: rest -> (
        let resolved =
          List.fold_left
            (fun acc txn ->
              match (acc, Hashtbl.find_opt by_txn txn) with
              | Error e, _ -> Error e
              | Ok _, None ->
                  Error
                    (Format.asprintf "install %d claims unknown txn %a" k
                       Message.pp_txn_id txn)
              | Ok l, Some ku -> Ok (ku :: l))
            (Ok []) txns
        in
        match resolved with
        | Error e ->
            fail c_err e;
            fail p_err e
        | Ok batch ->
            let batch =
              List.sort (fun (a, _) (b, _) -> Int.compare a b) batch
            in
            (* Complete: exactly the next deliveries, in order. *)
            if Option.is_none !c_err then begin
              let contiguous =
                List.for_all2
                  (fun (idx, _) want -> idx = want)
                  batch
                  (List.init (List.length batch) (fun d -> !applied + d))
              in
              if batch = [] || not contiguous then
                let n_txns = List.length txns in
                fail c_err
                  (Format.asprintf
                     "install %d does not incorporate exactly the next %s \
                      in delivery order"
                     k
                     (if n_txns <= 1 then "delivered update"
                      else Printf.sprintf "%d delivered updates" n_txns))
            end;
            (* Strong / Degraded: per-source prefix condition. *)
            if Option.is_none !p_err then begin
              let by_source = Array.make n [] in
              List.iter
                (fun (_, u) ->
                  let s = u.Message.txn.Message.source in
                  by_source.(s) <- u.Message.txn.Message.seq :: by_source.(s))
                batch;
              let prefix_ok = ref true in
              Array.iteri
                (fun s seqs ->
                  List.iter
                    (fun seq ->
                      if seq <> next_seq.(s) then prefix_ok := false
                      else next_seq.(s) <- next_seq.(s) + 1)
                    (List.sort Int.compare seqs))
                by_source;
              if not !prefix_ok then
                fail p_err
                  (Printf.sprintf
                     "install %d skips over an earlier update of some source"
                     k)
            end;
            if Option.is_none !c_err || Option.is_none !p_err then begin
              List.iter (fun (_, u) -> replay_txn st u) batch;
              applied := !applied + List.length batch;
              if not (Bag.equal st.expected snap) then begin
                fail c_err
                  (Printf.sprintf "install %d deviates from the expected state"
                     k);
                fail p_err
                  (Printf.sprintf
                     "install %d deviates from its batch's database state" k)
              end;
              go rest (k + 1)
            end)
  in
  go obs.installs 0;
  let closing err cond msg =
    match err with
    | Some e -> Error e
    | None -> if cond () then Ok () else Error (msg ())
  in
  { complete =
      closing !c_err
        (fun () -> !applied = n_deliveries)
        (fun () ->
          Format.asprintf "update %a was never installed" Message.pp_txn_id
            (List.nth obs.deliveries !applied).Message.txn);
    strong =
      closing !p_err
        (fun () -> !applied = n_deliveries)
        (fun () ->
          Printf.sprintf "only %d of %d updates were ever incorporated"
            !applied n_deliveries);
    degraded =
      closing !p_err
        (fun () -> Bag.equal st.expected obs.final_view)
        (fun () -> "final view deviates from the incorporated updates' state")
  }

(* ————— session guarantees over the read path ————— *)

type read_view = {
  session : int;
  issued_at : float;
  version : int;
  incorporated : int array;
  acked : int array;
}

type session_report = {
  reads_graded : int;
  monotonic_reads : bool;
  mr_violations : int;
  read_your_writes : bool;
  ryw_violations : int;
}

(* Grade the read log in serve order. Monotonic reads: per session, the
   observed install version never decreases (and neither does any
   component of the incorporated vector — a view that un-installed an
   update would be a regression even at the same version count).
   Read-your-writes: the served view reflects at least every update of
   the session's own source that the warehouse had acknowledged when the
   read was issued. *)
let check_sessions ~n_sources reads =
  if n_sources < 1 then invalid_arg "Checker.check_sessions: n_sources < 1";
  let last_version = Array.make n_sources (-1) in
  let last_inc = Array.make n_sources [||] in
  let mr_violations = ref 0 in
  let ryw_violations = ref 0 in
  let graded = ref 0 in
  List.iter
    (fun r ->
      if r.session < 0 || r.session >= n_sources then
        invalid_arg "Checker.check_sessions: session out of range";
      incr graded;
      let s = r.session in
      let component_regressed prev cur =
        Array.length prev = Array.length cur
        && (let bad = ref false in
            Array.iteri (fun i p -> if cur.(i) < p then bad := true) prev;
            !bad)
      in
      let regressed =
        r.version < last_version.(s)
        || (last_inc.(s) <> [||] && component_regressed last_inc.(s) r.incorporated)
      in
      if regressed then incr mr_violations;
      last_version.(s) <- max last_version.(s) r.version;
      last_inc.(s) <- Array.copy r.incorporated;
      if r.incorporated.(s) < r.acked.(s) then incr ryw_violations)
    reads;
  { reads_graded = !graded;
    monotonic_reads = !mr_violations = 0;
    mr_violations = !mr_violations;
    read_your_writes = !ryw_violations = 0;
    ryw_violations = !ryw_violations }

let pp_session_report ppf r =
  Format.fprintf ppf
    "%d reads graded; monotonic-reads %s (%d violations); read-your-writes \
     %s (%d violations)"
    r.reads_graded
    (if r.monotonic_reads then "OK" else "VIOLATED")
    r.mr_violations
    (if r.read_your_writes then "OK" else "violated")
    r.ryw_violations

let check ?(degraded = false) view obs =
  let states_checked = List.length obs.installs + 1 in
  let result verdict detail = { verdict; detail; states_checked } in
  (* A wrong final view is inconsistent no matter what the install
     history looks like — check it unconditionally first (a vacuously
     perfect history, e.g. a zero-update run, must not mask it). A
     degraded run (breakers open at the end, updates still parked) is
     allowed to miss the fully-updated state, but only if it is exact
     over the incorporated subset. *)
  match converged view obs with
  | Error conv_err when degraded -> (
      match (grade ~complete:false view obs).degraded with
      | Ok () ->
          result Degraded
            "breakers still open at end of run; view is exact over the \
             incorporated updates"
      | Error deg_err ->
          result Inconsistent
            (conv_err ^ "; and over the incorporated subset: " ^ deg_err))
  | Error conv_err -> result Inconsistent conv_err
  | Ok () -> (
      let g = grade ~complete:true view obs in
      match (g.complete, g.strong) with
      | Ok (), _ ->
          result Complete
            "every update installed in delivery order with exact contents"
      | Error complete_err, Ok () ->
          result Strong
            ("not complete (" ^ complete_err
           ^ ") but all batches order-preserving and exact")
      | Error _, Error strong_err ->
          result Convergent ("not strong (" ^ strong_err ^ ") but converged"))
