(* Test-only oracle: the multi-replay consistency checker that
   Repro_consistency.Checker replaced, kept verbatim below this comment.
   It copies every base relation per replayed leg and replays the
   delivery log once per grade, so it is slow, but it is the reference
   the single-pass indexed checker must match verdict for verdict and
   detail for detail (test_checker_diff.ml). *)

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

(* Apply one update to the replayed database, maintaining the expected view
   incrementally: ΔV = R0 ⋈ … ⋈ ΔRi ⋈ … ⋈ R(n-1) evaluated on the current
   state, then ΔRi is applied to Ri. *)
let apply_txn view rels expected (u : Message.update) =
  let i = u.Message.txn.source in
  let n = View_def.n_sources view in
  let partial = ref (Partial.of_source_delta view i u.Message.delta) in
  for j = i - 1 downto 0 do
    partial := Algebra.extend view !partial ~with_relation:(j, rels.(j))
  done;
  for j = i + 1 to n - 1 do
    partial := Algebra.extend view !partial ~with_relation:(j, rels.(j))
  done;
  Bag.merge_into ~into:expected (Algebra.select_project view !partial);
  match Relation.apply rels.(i) u.Message.delta with
  | Ok () -> ()
  | Error _ ->
      invalid_arg "Checker: delivery log contains a delete of absent tuples"

let initial_expected view initial =
  Bag.copy (Relation.as_bag (Algebra.eval view (fun i -> initial.(i))))

let expected_states view ~initial ~deliveries =
  let rels = Array.map Relation.copy initial in
  let expected = initial_expected view initial in
  let states = Array.make (List.length deliveries + 1) expected in
  states.(0) <- Bag.copy expected;
  List.iteri
    (fun k u ->
      apply_txn view rels expected u;
      states.(k + 1) <- Bag.copy expected)
    deliveries;
  states

(* Complete consistency: the installs partition the delivery log into
   contiguous runs, in delivery order, each installed state matching the
   database state after its run exactly. A singleton-per-delivery history
   (SWEEP) is the special case of all runs having length 1; a batched
   install (Sweep_batched, Nested SWEEP when its batch happens to be the
   full pending run) is complete iff it incorporates *exactly* the next
   deliveries with nothing skipped — every installed state is then a
   state the source databases actually passed through, in order, with no
   update ever reflected early or late. Returns an error description on
   failure. *)
let check_complete view obs =
  let by_txn = Hashtbl.create 64 in
  List.iteri
    (fun k u -> Hashtbl.replace by_txn u.Message.txn (k, u))
    obs.deliveries;
  let n_deliveries = List.length obs.deliveries in
  let rels = Array.map Relation.copy obs.initial_sources in
  let expected = initial_expected view obs.initial_sources in
  let next = ref 0 in
  let rec go installs k =
    match installs with
    | [] ->
        if !next = n_deliveries then Ok ()
        else
          Error
            (Format.asprintf "update %a was never installed"
               Message.pp_txn_id
               (List.nth obs.deliveries !next).Message.txn)
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
        | Error e -> Error e
        | Ok batch ->
            let batch =
              List.sort (fun (a, _) (b, _) -> Int.compare a b) batch
            in
            let contiguous =
              List.for_all2
                (fun (idx, _) want -> idx = want)
                batch
                (List.init (List.length batch) (fun d -> !next + d))
            in
            if batch = [] || not contiguous then
              let n_txns = List.length txns in
              Error
                (Format.asprintf
                   "install %d does not incorporate exactly the next %s \
                    in delivery order"
                   k
                   (if n_txns <= 1 then "delivered update"
                    else Printf.sprintf "%d delivered updates" n_txns))
            else begin
              List.iter (fun (_, u) -> apply_txn view rels expected u) batch;
              next := !next + List.length batch;
              if Bag.equal expected snap then go rest (k + 1)
              else
                Error
                  (Format.asprintf
                     "install %d deviates from the expected state" k)
            end)
  in
  go obs.installs 0

(* Strong consistency: batch installs allowed, provided each cumulative set
   is a per-source prefix of that source's update sequence and contents
   match the corresponding database state; all deliveries must eventually
   be incorporated. *)
let check_strong view obs =
  let n = View_def.n_sources view in
  let by_txn = Hashtbl.create 64 in
  List.iteri
    (fun k u -> Hashtbl.replace by_txn u.Message.txn (k, u))
    obs.deliveries;
  let rels = Array.map Relation.copy obs.initial_sources in
  let expected = initial_expected view obs.initial_sources in
  let next_seq = Array.make n 0 in
  let incorporated = ref 0 in
  let n_deliveries = List.length obs.deliveries in
  let rec go installs k =
    match installs with
    | [] ->
        if !incorporated = n_deliveries then Ok ()
        else
          Error
            (Printf.sprintf "only %d of %d updates were ever incorporated"
               !incorporated n_deliveries)
    | (txns, snap) :: rest -> (
        (* Resolve the batch against the delivery log. *)
        let resolved =
          List.map
            (fun txn ->
              match Hashtbl.find_opt by_txn txn with
              | Some ku -> Ok ku
              | None ->
                  Error
                    (Format.asprintf "install %d claims unknown txn %a" k
                       Message.pp_txn_id txn))
            txns
        in
        match
          List.fold_left
            (fun acc r ->
              match (acc, r) with
              | Error e, _ -> Error e
              | Ok l, Ok ku -> Ok (ku :: l)
              | Ok _, Error e -> Error e)
            (Ok []) resolved
        with
        | Error e -> Error e
        | Ok batch ->
            (* Per-source prefix condition. *)
            let by_source = Array.make n [] in
            List.iter
              (fun (_, u) ->
                let s = u.Message.txn.Message.source in
                by_source.(s) <- u.Message.txn.Message.seq :: by_source.(s))
              batch;
            let prefix_ok = ref true in
            Array.iteri
              (fun s seqs ->
                let seqs = List.sort Int.compare seqs in
                List.iter
                  (fun seq ->
                    if seq <> next_seq.(s) then prefix_ok := false
                    else next_seq.(s) <- next_seq.(s) + 1)
                  seqs)
              by_source;
            if not !prefix_ok then
              Error
                (Printf.sprintf
                   "install %d skips over an earlier update of some source" k)
            else begin
              (* Replay the batch in delivery order (the final state of a
                 batch is interleaving-independent). *)
              let batch =
                List.sort (fun (a, _) (b, _) -> Int.compare a b) batch
              in
              List.iter (fun (_, u) -> apply_txn view rels expected u) batch;
              incorporated := !incorporated + List.length batch;
              if Bag.equal expected snap then go rest (k + 1)
              else
                Error
                  (Printf.sprintf
                     "install %d deviates from its batch's database state" k)
            end)
  in
  go obs.installs 0

(* Degraded consistency: the run ended with circuit breakers still open,
   so some delivered updates were parked and never incorporated. The
   install history must still be order-preserving and exact over the
   {e incorporated subset} (per-source prefixes, contents matching the
   partially-updated database state), and the final view must equal the
   state reached by exactly the incorporated updates — the view is
   honest about what it reflects, it just is not done. *)
let check_degraded view obs =
  let n = View_def.n_sources view in
  let by_txn = Hashtbl.create 64 in
  List.iteri
    (fun k u -> Hashtbl.replace by_txn u.Message.txn (k, u))
    obs.deliveries;
  let rels = Array.map Relation.copy obs.initial_sources in
  let expected = initial_expected view obs.initial_sources in
  let next_seq = Array.make n 0 in
  let rec go installs k =
    match installs with
    | [] ->
        if Bag.equal expected obs.final_view then Ok ()
        else
          Error "final view deviates from the incorporated updates' state"
    | (txns, snap) :: rest -> (
        match
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
        with
        | Error e -> Error e
        | Ok batch ->
            let by_source = Array.make n [] in
            List.iter
              (fun (_, u) ->
                let s = u.Message.txn.Message.source in
                by_source.(s) <- u.Message.txn.Message.seq :: by_source.(s))
              batch;
            let prefix_ok = ref true in
            Array.iteri
              (fun s seqs ->
                let seqs = List.sort Int.compare seqs in
                List.iter
                  (fun seq ->
                    if seq <> next_seq.(s) then prefix_ok := false
                    else next_seq.(s) <- next_seq.(s) + 1)
                  seqs)
              by_source;
            if not !prefix_ok then
              Error
                (Printf.sprintf
                   "install %d skips over an earlier update of some source" k)
            else begin
              let batch =
                List.sort (fun (a, _) (b, _) -> Int.compare a b) batch
              in
              List.iter (fun (_, u) -> apply_txn view rels expected u) batch;
              if Bag.equal expected snap then go rest (k + 1)
              else
                Error
                  (Printf.sprintf
                     "install %d deviates from its batch's database state" k)
            end)
  in
  go obs.installs 0

let check_convergent view obs =
  let states =
    expected_states view ~initial:obs.initial_sources
      ~deliveries:obs.deliveries
  in
  let final = states.(Array.length states - 1) in
  if Bag.equal final obs.final_view then Ok ()
  else Error "final view differs from the fully-updated database state"

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
  (* A wrong final view is inconsistent no matter what the install
     history looks like — check it unconditionally first (a vacuously
     perfect history, e.g. a zero-update run, must not mask it). A
     degraded run (breakers open at the end, updates still parked) is
     allowed to miss the fully-updated state, but only if it is exact
     over the incorporated subset. *)
  match check_convergent view obs with
  | Error conv_err when degraded -> (
      match check_degraded view obs with
      | Ok () ->
          { verdict = Degraded;
            detail =
              "breakers still open at end of run; view is exact over the \
               incorporated updates";
            states_checked }
      | Error deg_err ->
          { verdict = Inconsistent;
            detail = conv_err ^ "; and over the incorporated subset: "
                     ^ deg_err;
            states_checked })
  | Error conv_err ->
      { verdict = Inconsistent; detail = conv_err; states_checked }
  | Ok () -> (
  match check_complete view obs with
  | Ok () -> { verdict = Complete; detail = "every update installed in delivery order with exact contents"; states_checked }
  | Error complete_err -> (
      match check_strong view obs with
      | Ok () ->
          { verdict = Strong;
            detail = "not complete (" ^ complete_err ^ ") but all batches \
                      order-preserving and exact";
            states_checked }
      | Error strong_err ->
          { verdict = Convergent;
            detail = "not strong (" ^ strong_err ^ ") but converged";
            states_checked }))
