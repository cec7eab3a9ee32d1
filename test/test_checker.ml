(* Unit tests for the consistency checker itself, using hand-built
   observations over the paper's example so each verdict level is
   exercised against a known ground truth. *)

open Repro_relational
open Repro_protocol
open Repro_consistency

let view = (Paper_example.view ())

let deliveries =
  (* delivery order: ΔR2, ΔR3, ΔR1 with per-source seq numbers *)
  let mk source seq (_, delta) =
    { Message.txn = { Message.source; seq }; delta; occurred_at = 0.; global = None }
  in
  [ mk 1 0 (Paper_example.d_r2 ()); mk 2 0 (Paper_example.d_r3 ());
    mk 0 0 (Paper_example.d_r1 ()) ]

let txn k = (List.nth deliveries k).Message.txn

let obs installs final =
  { Checker.initial_sources = Paper_example.initial (); deliveries; installs;
    final_view = final }

let test_expected_states () =
  let states =
    Checker.expected_states view ~initial:(Paper_example.initial ())
      ~deliveries
  in
  Alcotest.(check int) "four states" 4 (Array.length states);
  Alcotest.check Rig.bag "s0" (Paper_example.v0 ()) states.(0);
  Alcotest.check Rig.bag "s1" (Paper_example.v1 ()) states.(1);
  Alcotest.check Rig.bag "s2" (Paper_example.v2 ()) states.(2);
  Alcotest.check Rig.bag "s3" (Paper_example.v3 ()) states.(3)

let test_complete_accepted () =
  let r =
    Checker.check view
      (obs
         [ ([ txn 0 ], (Paper_example.v1 ())); ([ txn 1 ], (Paper_example.v2 ()));
           ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "complete" Checker.Complete r.Checker.verdict

let test_contiguous_batching_complete () =
  (* two updates installed as one batch covering exactly the next two
     deliveries: a contiguous run, so still complete (Sweep_batched's
     install shape) *)
  let r =
    Checker.check view
      (obs
         [ ([ txn 0; txn 1 ], (Paper_example.v2 ())); ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "complete" Checker.Complete r.Checker.verdict

let test_strong_batching_accepted () =
  (* the first install batches deliveries 0 and 2, skipping over source
     2's delivery 1: a legal serialization (per-source orders respected)
     but not a delivery-order prefix — strong, not complete *)
  let states =
    Checker.expected_states view ~initial:(Paper_example.initial ())
      ~deliveries:
        [ List.nth deliveries 0; List.nth deliveries 2; List.nth deliveries 1 ]
  in
  let r =
    Checker.check view
      (obs
         [ ([ txn 0; txn 2 ], states.(2)); ([ txn 1 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "strong" Checker.Strong r.Checker.verdict

let test_strong_rejects_gaps () =
  (* skipping ΔR3 while installing ΔR1: delivery of source 2 never
     incorporated → only convergent if final happens to match, here it
     does not *)
  let r =
    Checker.check view
      (obs
         [ ([ txn 0 ], (Paper_example.v1 ())); ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.(check bool) "not strong" true
    (Checker.compare_verdict r.Checker.verdict Checker.Strong > 0)

let test_out_of_order_same_source_rejected () =
  (* two updates of one source applied out of order must not be strong *)
  let d1 = Delta.insertion (Tuple.ints [ 9; 5 ]) in
  let d2 = Delta.deletion (Tuple.ints [ 3; 7 ]) in
  let deliveries =
    [ { Message.txn = { Message.source = 1; seq = 0 }; delta = d1;
        occurred_at = 0.; global = None };
      { Message.txn = { Message.source = 1; seq = 1 }; delta = d2;
        occurred_at = 0.; global = None } ]
  in
  let states =
    Checker.expected_states view ~initial:(Paper_example.initial ())
      ~deliveries
  in
  let final = states.(2) in
  let r =
    Checker.check view
      { Checker.initial_sources = Paper_example.initial (); deliveries;
        installs =
          [ ([ { Message.source = 1; seq = 1 } ], final);
            ([ { Message.source = 1; seq = 0 } ], final) ];
        final_view = final }
  in
  Alcotest.(check bool) "reordered source txns rejected" true
    (Checker.compare_verdict r.Checker.verdict Checker.Strong > 0)

let test_convergent () =
  (* garbage intermediate state but correct final state *)
  let junk = Bag.of_list [ (Tuple.ints [ 0; 0 ], 1) ] in
  let r =
    Checker.check view
      (obs
         [ ([ txn 0 ], junk); ([ txn 1 ], junk); ([ txn 2 ], (Paper_example.v3 ())) ]
         (Paper_example.v3 ()))
  in
  Alcotest.check Rig.verdict "convergent" Checker.Convergent r.Checker.verdict

let test_inconsistent () =
  let junk = Bag.of_list [ (Tuple.ints [ 0; 0 ], 1) ] in
  let r = Checker.check view (obs [ ([ txn 0 ], junk) ] junk) in
  Alcotest.check Rig.verdict "inconsistent" Checker.Inconsistent
    r.Checker.verdict

let test_verdict_order () =
  Alcotest.(check bool) "complete < strong" true
    (Checker.compare_verdict Checker.Complete Checker.Strong < 0);
  Alcotest.(check bool) "strong < convergent" true
    (Checker.compare_verdict Checker.Strong Checker.Convergent < 0);
  Alcotest.(check bool) "convergent < inconsistent" true
    (Checker.compare_verdict Checker.Convergent Checker.Inconsistent < 0)

let suite =
  [ Alcotest.test_case "expected states replay Figure 5" `Quick
      test_expected_states;
    Alcotest.test_case "accepts complete histories" `Quick
      test_complete_accepted;
    Alcotest.test_case "contiguous batching is complete" `Quick
      test_contiguous_batching_complete;
    Alcotest.test_case "accepts strong batching" `Quick
      test_strong_batching_accepted;
    Alcotest.test_case "rejects skipped updates" `Quick
      test_strong_rejects_gaps;
    Alcotest.test_case "rejects per-source reordering" `Quick
      test_out_of_order_same_source_rejected;
    Alcotest.test_case "classifies convergent" `Quick test_convergent;
    Alcotest.test_case "classifies inconsistent" `Quick test_inconsistent;
    Alcotest.test_case "verdict ordering" `Quick test_verdict_order ]

(* Mutation testing of the checker itself: perturbing a known-complete
   history in any way must degrade the verdict. A checker that accepts
   mutants would silently bless broken algorithms. *)
let complete_installs () =
  [ ([ txn 0 ], (Paper_example.v1 ())); ([ txn 1 ], (Paper_example.v2 ()));
    ([ txn 2 ], (Paper_example.v3 ())) ]

let degraded r = Checker.compare_verdict r.Checker.verdict Checker.Complete > 0

let test_mutation_snapshot_tuple () =
  (* add a spurious tuple to one snapshot *)
  let installs =
    List.mapi
      (fun i (txns, snap) ->
        if i = 1 then begin
          let snap = Bag.copy snap in
          Bag.add snap (Tuple.ints [ 4; 4 ]) 1;
          (txns, snap)
        end
        else (txns, snap))
      (complete_installs ())
  in
  Alcotest.(check bool) "spurious tuple caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_count_off_by_one () =
  let installs =
    List.mapi
      (fun i (txns, snap) ->
        if i = 0 then begin
          let snap = Bag.copy snap in
          Bag.add snap (Tuple.ints [ 5; 6 ]) (-1);
          (txns, snap)
        end
        else (txns, snap))
      (complete_installs ())
  in
  Alcotest.(check bool) "multiplicity error caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_swapped_installs () =
  let installs =
    match complete_installs () with
    | [ a; b; c ] -> [ b; a; c ]
    | _ -> assert false
  in
  Alcotest.(check bool) "swapped installs caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_duplicated_txn () =
  (* the same txn claimed by two installs *)
  let installs =
    match complete_installs () with
    | [ (t0, s0); (_, s1); c ] -> [ (t0, s0); (t0, s1); c ]
    | _ -> assert false
  in
  Alcotest.(check bool) "duplicate claim caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

let test_mutation_dropped_install () =
  let installs =
    match complete_installs () with
    | [ a; _; c ] -> [ a; c ]
    | _ -> assert false
  in
  Alcotest.(check bool) "missing install caught" true
    (degraded (Checker.check view (obs installs (Paper_example.v3 ()))))

(* Degenerate inputs: the checker must classify trivial runs correctly
   rather than crash or misgrade them — empty initial database, runs with
   no updates at all, and runs whose every delta is a no-op. *)

let test_degenerate_empty_initial () =
  let n = Repro_relational.View_def.n_sources view in
  let initial = Array.init n (fun _ -> Relation.create ()) in
  let states = Checker.expected_states view ~initial ~deliveries:[] in
  Alcotest.(check int) "one state (the initial view)" 1 (Array.length states);
  Alcotest.(check bool) "empty sources give an empty view" true
    (Bag.is_empty states.(0));
  let r =
    Checker.check view
      { Checker.initial_sources = initial; deliveries = []; installs = [];
        final_view = Bag.create () }
  in
  Alcotest.check Rig.verdict "empty run is complete" Checker.Complete
    r.Checker.verdict

let test_degenerate_zero_updates () =
  let r =
    Checker.check view
      { Checker.initial_sources = Paper_example.initial (); deliveries = [];
        installs = []; final_view = (Paper_example.v0 ()) }
  in
  Alcotest.check Rig.verdict "no-update run is complete" Checker.Complete
    r.Checker.verdict;
  let wrong = Bag.of_list [ (Tuple.ints [ 1; 2 ], 1) ] in
  let r =
    Checker.check view
      { Checker.initial_sources = Paper_example.initial (); deliveries = [];
        installs = []; final_view = wrong }
  in
  Alcotest.check Rig.verdict "wrong final view still caught"
    Checker.Inconsistent r.Checker.verdict

let test_degenerate_all_noop_deltas () =
  let mk source seq =
    { Message.txn = { Message.source; seq }; delta = Delta.empty ();
      occurred_at = 0.; global = None }
  in
  let deliveries = [ mk 0 0; mk 1 0; mk 0 1 ] in
  let states =
    Checker.expected_states view ~initial:(Paper_example.initial ())
      ~deliveries
  in
  Array.iter
    (fun s -> Alcotest.check Rig.bag "every state is the initial view"
        (Paper_example.v0 ()) s)
    states;
  let txn k = (List.nth deliveries k).Message.txn in
  let r =
    Checker.check view
      { Checker.initial_sources = Paper_example.initial (); deliveries;
        installs =
          [ ([ txn 0 ], (Paper_example.v0 ())); ([ txn 1 ], (Paper_example.v0 ()));
            ([ txn 2 ], (Paper_example.v0 ())) ];
        final_view = (Paper_example.v0 ()) }
  in
  Alcotest.check Rig.verdict "per-update no-op installs are complete"
    Checker.Complete r.Checker.verdict;
  let r =
    Checker.check view
      { Checker.initial_sources = Paper_example.initial (); deliveries;
        installs = [ ([ txn 0; txn 1; txn 2 ], (Paper_example.v0 ())) ];
        final_view = (Paper_example.v0 ()) }
  in
  Alcotest.(check bool) "batched no-op install at least strong" true
    (Checker.compare_verdict r.Checker.verdict Checker.Strong <= 0)

(* Degraded-mode degenerate inputs: a run that ends with breakers still
   open may have delivered nothing, installed nothing, or consist purely
   of reads. [check ~degraded:true] must still grade these rather than
   crash or misclassify. *)

let test_degraded_zero_updates () =
  (* nothing delivered, nothing installed, view untouched: the run is
     trivially complete even under the degraded grader — degraded mode
     must not demote a vacuous history *)
  let r =
    Checker.check ~degraded:true view
      { Checker.initial_sources = Paper_example.initial (); deliveries = [];
        installs = []; final_view = (Paper_example.v0 ()) }
  in
  Alcotest.check Rig.verdict "zero-update degraded run is complete"
    Checker.Complete r.Checker.verdict

let test_degraded_read_only_with_parked_updates () =
  (* updates were delivered but the breaker opened before any install:
     the view honestly reflects the empty incorporated subset, so the
     run grades Degraded — not Inconsistent, and not a crash *)
  let r =
    Checker.check ~degraded:true view
      { Checker.initial_sources = Paper_example.initial (); deliveries;
        installs = []; final_view = (Paper_example.v0 ()) }
  in
  Alcotest.check Rig.verdict "parked deliveries grade degraded"
    Checker.Degraded r.Checker.verdict;
  (* without the degraded flag the same history is inconsistent: the
     deliveries were never incorporated and the final view differs from
     the fully-updated state *)
  let r =
    Checker.check view
      { Checker.initial_sources = Paper_example.initial (); deliveries;
        installs = []; final_view = (Paper_example.v0 ()) }
  in
  Alcotest.check Rig.verdict "same history without the flag is inconsistent"
    Checker.Inconsistent r.Checker.verdict

let test_degraded_dishonest_final_view_rejected () =
  (* degraded mode is not a free pass: if the final view does not match
     the incorporated subset's state it is still inconsistent *)
  let junk = Bag.of_list [ (Tuple.ints [ 0; 0 ], 1) ] in
  let r =
    Checker.check ~degraded:true view
      { Checker.initial_sources = Paper_example.initial (); deliveries;
        installs = []; final_view = junk }
  in
  Alcotest.check Rig.verdict "dishonest degraded view rejected"
    Checker.Inconsistent r.Checker.verdict

(* Every verdict's wording, pinned byte for byte to the multi-replay
   checker the single pass replaced (kept as Checker_reference): the
   detail text of all five verdicts, including each failed level's
   reason, and states_checked. *)
let pin ?degraded ~ctx o (verdict, detail, states) =
  let got = Checker.check ?degraded view o in
  let reference =
    Checker_reference.check ?degraded view
      { Checker_reference.initial_sources = o.Checker.initial_sources;
        deliveries = o.Checker.deliveries; installs = o.Checker.installs;
        final_view = o.Checker.final_view }
  in
  Alcotest.check Rig.verdict (ctx ^ ": verdict") verdict got.Checker.verdict;
  Alcotest.(check string) (ctx ^ ": detail") detail got.Checker.detail;
  Alcotest.(check int) (ctx ^ ": states checked") states
    got.Checker.states_checked;
  Alcotest.(check string) (ctx ^ ": reference verdict")
    (Checker.verdict_to_string verdict)
    (Checker_reference.verdict_to_string reference.Checker_reference.verdict);
  Alcotest.(check string) (ctx ^ ": reference detail") detail
    reference.Checker_reference.detail;
  Alcotest.(check int) (ctx ^ ": reference states checked") states
    reference.Checker_reference.states_checked

let test_verdict_wording () =
  let v1 = Paper_example.v1 () and v2 = Paper_example.v2 () in
  let v3 = Paper_example.v3 () in
  let junk = Bag.of_list [ (Tuple.ints [ 0; 0 ], 1) ] in
  pin ~ctx:"complete"
    (obs [ ([ txn 0 ], v1); ([ txn 1 ], v2); ([ txn 2 ], v3) ] v3)
    ( Checker.Complete,
      "every update installed in delivery order with exact contents", 4 );
  let skipping =
    Checker.expected_states view ~initial:(Paper_example.initial ())
      ~deliveries:
        [ List.nth deliveries 0; List.nth deliveries 2; List.nth deliveries 1 ]
  in
  pin ~ctx:"strong"
    (obs [ ([ txn 0; txn 2 ], skipping.(2)); ([ txn 1 ], v3) ] v3)
    ( Checker.Strong,
      "not complete (install 0 does not incorporate exactly the next 2 \
       delivered updates in delivery order) but all batches \
       order-preserving and exact",
      3 );
  pin ~ctx:"convergent: deviation"
    (obs [ ([ txn 0 ], junk); ([ txn 1 ], junk); ([ txn 2 ], v3) ] v3)
    ( Checker.Convergent,
      "not strong (install 0 deviates from its batch's database state) but \
       converged",
      4 );
  let reordered =
    List.map
      (fun (seq, delta) ->
        { Message.txn = { Message.source = 1; seq }; delta; occurred_at = 0.;
          global = None })
      [ (0, Delta.insertion (Tuple.ints [ 9; 5 ]));
        (1, Delta.deletion (Tuple.ints [ 3; 7 ])) ]
  in
  let final =
    (Checker.expected_states view ~initial:(Paper_example.initial ())
       ~deliveries:reordered).(2)
  in
  pin ~ctx:"convergent: skip"
    { Checker.initial_sources = Paper_example.initial ();
      deliveries = reordered;
      installs =
        [ ([ { Message.source = 1; seq = 1 } ], final);
          ([ { Message.source = 1; seq = 0 } ], final) ];
      final_view = final }
    ( Checker.Convergent,
      "not strong (install 0 skips over an earlier update of some source) \
       but converged",
      3 );
  pin ~ctx:"convergent: unknown txn"
    (obs [ ([ { Message.source = 2; seq = 9 } ], v1) ] v3)
    ( Checker.Convergent,
      "not strong (install 0 claims unknown txn u2.9) but converged", 2 );
  pin ~ctx:"convergent: never incorporated"
    (obs [ ([ txn 0 ], v1); ([ txn 1 ], v2) ] v3)
    ( Checker.Convergent,
      "not strong (only 2 of 3 updates were ever incorporated) but converged",
      3 );
  pin ~ctx:"inconsistent"
    (obs [ ([ txn 0 ], junk) ] junk)
    ( Checker.Inconsistent,
      "final view differs from the fully-updated database state", 2 );
  pin ~degraded:true ~ctx:"degraded"
    (obs [ ([ txn 0 ], v1) ] v1)
    ( Checker.Degraded,
      "breakers still open at end of run; view is exact over the \
       incorporated updates",
      2 );
  pin ~degraded:true ~ctx:"degraded: dishonest final view"
    (obs [] junk)
    ( Checker.Inconsistent,
      "final view differs from the fully-updated database state; and over \
       the incorporated subset: final view deviates from the incorporated \
       updates' state",
      1 );
  pin ~degraded:true ~ctx:"degraded: deviating install"
    (obs [ ([ txn 0 ], junk) ] v1)
    ( Checker.Inconsistent,
      "final view differs from the fully-updated database state; and over \
       the incorporated subset: install 0 deviates from its batch's \
       database state",
      2 )

(* The replay keeps its own per-column indexes over its copies of the
   sources; they must stay exact. [expected_states] is the replay, so
   every prefix state must equal a from-scratch [Algebra.eval]. The view
   puts every junction shape on every update's path: R0 × R1 is a cross
   product (the fallback that joins the whole relation), R1 ⋈ R2 has a
   residual predicate, R2 ⋈ R3 equates two column pairs. A scripted
   prefix empties an index bucket with a delete and re-inserts the same
   tuple; seeded random updates (inserts, duplicate inserts, deletes,
   two-change deltas) follow. *)
let index_view =
  let g src col = (src * 3) + col in
  View_def.make ~name:"junctions" ~schemas:(Repro_workload.Chain.schemas ~n:4)
    ~joins:
      [| Join_spec.make [];
         Join_spec.make
           ~residual:(Predicate.Cmp (Predicate.Le, Attr (g 1 1), Attr (g 2 2)))
           [ (g 1 2, g 2 1) ];
         Join_spec.make [ (g 2 1, g 3 1); (g 2 2, g 3 2) ] |]
    ~projection:[| g 0 0; g 1 0; g 2 0; g 3 0; g 3 2 |]
    ()

let test_replica_indexes_exact () =
  let int = Repro_sim.Rng.int in
  for seed = 1 to 20 do
    let rng = Repro_sim.Rng.create (Int64.of_int seed) in
    let initial =
      Array.init 4 (fun _ ->
          Relation.of_tuples
            (List.init 6 (fun k -> Tuple.ints [ k; int rng 3; int rng 3 ])))
    in
    let rels = Array.map Relation.copy initial in
    let seqs = Array.make 4 0 in
    let rev = ref [] in
    let emit source changes =
      let delta = Delta.of_list changes in
      (match Relation.apply rels.(source) delta with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "generator emitted an absent delete");
      rev :=
        { Message.txn = { Message.source; seq = seqs.(source) }; delta;
          occurred_at = 0.; global = None }
        :: !rev;
      seqs.(source) <- seqs.(source) + 1
    in
    (* R2's tuple (50, 7, 7) is the only one whose a is 7: R3 updates
       probe R2 on that column, the delete empties its bucket, and the
       re-insert must bring the partner back. *)
    let lone = Tuple.ints [ 50; 7; 7 ] in
    emit 2 [ (lone, 1) ];
    emit 3 [ (Tuple.ints [ 60; 7; 7 ], 1) ];
    emit 2 [ (lone, -1) ];
    emit 3 [ (Tuple.ints [ 61; 7; 7 ], 1) ];
    emit 2 [ (lone, 1) ];
    emit 3 [ (Tuple.ints [ 62; 7; 7 ], 1) ];
    for _ = 1 to 40 do
      let source = int rng 4 in
      let fresh () = Tuple.ints [ 100 + int rng 1000; int rng 3; int rng 3 ] in
      let present =
        match Relation.to_sorted_list rels.(source) with
        | [] -> None
        | l -> Some (fst (List.nth l (int rng (List.length l))))
      in
      match (int rng 4, present) with
      | (0 | 1), _ -> emit source [ (fresh (), 1) ]
      | 2, Some tup -> emit source [ (tup, -1) ]
      | 3, Some tup ->
          (* a duplicate insert plus a fresh one in a single delta *)
          emit source [ (tup, 1); (fresh (), 1) ]
      | _ -> ()
    done;
    let deliveries = List.rev !rev in
    let states = Checker.expected_states index_view ~initial ~deliveries in
    let replay = Array.map Relation.copy initial in
    Array.iteri
      (fun k state ->
        if k > 0 then begin
          let u = List.nth deliveries (k - 1) in
          ignore (Relation.apply replay.(u.Message.txn.source) u.Message.delta)
        end;
        Alcotest.check Rig.bag
          (Printf.sprintf "seed %d prefix %d equals a fresh eval" seed k)
          (Relation.as_bag (Algebra.eval index_view (fun i -> replay.(i))))
          state)
      states
  done

(* Scale regression: replayed legs probe the replicas' indexes, so the
   checker's cost per update follows the join fan-out, not the size of
   the base relations. Measured as the marginal minor words of one
   [Checker.check] per update (a 200-update history minus its 100-update
   prefix, so per-check set-up cancels), over a selective 3-source chain:
   the join domain grows with the relations (about one partner per
   tuple) and the selection keeps |V| near ten tuples. Allocation counts
   are deterministic, so the bound is exact across hosts; a checker that
   copies or scans a base relation per leg grows with |R| and fails. *)
let marginal_words_per_update ~size =
  let view =
    Repro_workload.Chain.view ~n:3
      ~selection:(Predicate.cmp_const Predicate.Lt 0 (Value.Int 10))
      ()
  in
  let rng = Repro_sim.Rng.create 11L in
  let initial =
    Repro_workload.Chain.populate view ~size ~domain:size
      (Repro_sim.Rng.split rng)
  in
  let live = Array.map Relation.copy initial in
  let seqs = Array.make 3 0 in
  let deliveries =
    List.init 200 (fun k ->
        let source = Repro_sim.Rng.int rng 3 in
        let delta =
          if k mod 3 = 2 then begin
            (* delete one of the original tuples, if still present *)
            let tup =
              Relation.fold
                (fun tup _ acc -> match acc with None -> Some tup | s -> s)
                live.(source) None
            in
            match tup with
            | Some tup -> Delta.deletion tup
            | None -> Delta.empty ()
          end
          else
            Delta.insertion
              (Repro_workload.Chain.tuple ~key:(size + k)
                 ~a:(Repro_sim.Rng.int rng size)
                 ~b:(Repro_sim.Rng.int rng size))
        in
        ignore (Relation.apply live.(source) delta);
        let txn = { Message.source; seq = seqs.(source) } in
        seqs.(source) <- seqs.(source) + 1;
        { Message.txn; delta; occurred_at = 0.; global = None })
  in
  let states = Checker.expected_states view ~initial ~deliveries in
  let words n =
    let deliveries = List.filteri (fun k _ -> k < n) deliveries in
    let o =
      { Checker.initial_sources = initial; deliveries;
        installs = List.mapi (fun k u -> ([ u.Message.txn ], states.(k + 1))) deliveries;
        final_view = states.(n) }
    in
    let before = Gc.minor_words () in
    let r = Checker.check view o in
    let after = Gc.minor_words () in
    Alcotest.check Rig.verdict
      (Printf.sprintf "|R| = %d, %d updates: complete" size n)
      Checker.Complete r.Checker.verdict;
    after -. before
  in
  (words 200 -. words 100) /. 100.

let test_cost_per_update_independent_of_base_size () =
  let small = marginal_words_per_update ~size:500 in
  let large = marginal_words_per_update ~size:4000 in
  Alcotest.(check bool)
    (Printf.sprintf
       "minor words per update: %.0f at 4000 tuples/source within 2x of \
        %.0f at 500"
       large small)
    true
    (large <= 2. *. small)

let suite =
  suite
  @ [ Alcotest.test_case "cost per update independent of |R|" `Quick
        test_cost_per_update_independent_of_base_size;
      Alcotest.test_case "replica indexes stay exact at every prefix" `Quick
        test_replica_indexes_exact;
      Alcotest.test_case "verdict wording is pinned" `Quick
        test_verdict_wording;
      Alcotest.test_case "degenerate: empty initial database" `Quick
        test_degenerate_empty_initial;
      Alcotest.test_case "degraded: zero-update run still grades" `Quick
        test_degraded_zero_updates;
      Alcotest.test_case "degraded: read-only run with parked updates" `Quick
        test_degraded_read_only_with_parked_updates;
      Alcotest.test_case "degraded: dishonest final view rejected" `Quick
        test_degraded_dishonest_final_view_rejected;
      Alcotest.test_case "degenerate: zero updates" `Quick
        test_degenerate_zero_updates;
      Alcotest.test_case "degenerate: all no-op deltas" `Quick
        test_degenerate_all_noop_deltas;
      Alcotest.test_case "mutant: spurious tuple" `Quick
        test_mutation_snapshot_tuple;
      Alcotest.test_case "mutant: multiplicity off by one" `Quick
        test_mutation_count_off_by_one;
      Alcotest.test_case "mutant: swapped installs" `Quick
        test_mutation_swapped_installs;
      Alcotest.test_case "mutant: duplicated txn claim" `Quick
        test_mutation_duplicated_txn;
      Alcotest.test_case "mutant: dropped install" `Quick
        test_mutation_dropped_install ]
