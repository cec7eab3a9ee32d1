(* One benchmark invocation: generate a workload's inputs from the seed,
   run every algorithm of the workload over them in rounds until the
   time budget is spent, gate every run, and reduce to the end-to-end
   metrics (untraced) or the per-layer metrics (traced). *)

open Repro_relational
open Repro_warehouse
open Repro_consistency
module Jsonw = Repro_observability.Jsonw
module Tracer = Repro_observability.Tracer
module Obs = Repro_observability.Obs
module Server = Repro_serving.Server

(* One algorithm over the workload's inputs, once. *)
type run = {
  algorithm : string;
  scale : float;  (** this run's {!Host.probe} *)
  setup_s : float list;  (** one sample per set-up made *)
  drain_s : float;
  check_s : float;
  alloc_words : float;
  updates : int;
  reads : int;
  shed : int;
  events : int;
  metrics : Metrics.t;
  staleness : float array;
  verdict : Checker.result option;
  failures : string list;  (** correctness-gate violations *)
  scans : int;
  retransmissions : int;
  duplicates_suppressed : int;
  wal_bytes : int;
  checkpoint_bytes : int;
  history_installs : int;
  obs_spans : int;
  view_total : int;
}

(* The paper's floor: SWEEP is complete, Nested SWEEP and Strobe are
   strong. *)
let floor = function "sweep" -> Checker.Complete | _ -> Checker.Strong

(* A set-up shorter than this is repeated, up to 10 times, so that a
   cheap one still gives a steady median. *)
let setup_budget = 0.02

let run_one ?spans ~seed (w : Workload.t) (inputs : Inputs.t) name =
  let algorithm = Workload.algorithm name in
  (* every run starts from a compacted heap, whatever the last one left *)
  Gc.compact ();
  let scale = Host.probe () in
  let rig = Rig.create ?spans ~seed w.config inputs algorithm in
  let rec more_setups acc spent k =
    if spans <> None || spent >= setup_budget || k >= 10 then acc
    else
      let s = Clock.seconds (Rig.create ~seed w.config inputs algorithm).setup_ns in
      more_setups (s :: acc) (spent +. s) (k + 1)
  in
  let first_setup = Clock.seconds rig.setup_ns in
  let setup_s = more_setups [ first_setup ] first_setup 1 in
  Gc.full_major ();
  let drain_ns, alloc_words = Rig.drain rig in
  Gc.full_major ();
  let t0 = Clock.now_ns () in
  let verdict = if w.config.history then Some (Rig.check rig) else None in
  let exact = Bag.equal (Rig.view rig) (Rig.oracle rig) in
  let check_ns = Clock.now_ns () - t0 in
  let m = Rig.metrics rig in
  let updates = Array.length inputs.updates in
  let staleness = Rig.staleness rig in
  let scans = Rig.unindexed_scans rig in
  let tstats = Rig.transport_stats rig in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 tstats in
  let failures =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [ ( m.updates_incorporated <> updates
          || Array.length staleness <> updates,
          Printf.sprintf "%d of %d updates incorporated"
            m.updates_incorporated updates );
        (not exact, "final view differs from the view over the final sources");
        ( m.negative_installs > 0,
          Printf.sprintf "%d negative installs" m.negative_installs );
        (scans > 0, Printf.sprintf "%d unindexed scans" scans);
        (not (Node.idle rig.node), "warehouse not idle after the drain");
        ( (match verdict with
          | Some v -> Checker.compare_verdict v.verdict (floor name) > 0
          | None -> false),
          Printf.sprintf "verdict %s below %s"
            (match verdict with
            | Some v -> Checker.verdict_to_string v.verdict
            | None -> "-")
            (Checker.verdict_to_string (floor name)) ) ]
  in
  { algorithm = name; scale; setup_s;
    drain_s = Clock.seconds drain_ns; check_s = Clock.seconds check_ns;
    alloc_words; updates;
    reads = (if w.config.serving then Array.length inputs.reads else 0);
    shed = (match rig.server with Some s -> Server.shed s | None -> 0);
    events = Repro_sim.Engine.executed rig.engine; metrics = m; staleness;
    verdict; failures; scans;
    retransmissions = sum (fun s -> s.retransmissions);
    duplicates_suppressed = sum (fun s -> s.duplicates_suppressed);
    wal_bytes =
      (match rig.store with Some s -> Repro_durability.Store.wal_bytes s | None -> 0);
    checkpoint_bytes =
      (match rig.store with
      | Some s -> Repro_durability.Store.checkpoint_bytes s
      | None -> 0);
    history_installs = List.length (Node.installs rig.node);
    obs_spans = Tracer.span_count (Obs.tracer rig.obs);
    view_total = Bag.total (Rig.view rig) }

(* The deterministic outputs of a run: identical in every round, and
   between the traced and the untraced pass. *)
let fingerprint r =
  ( Metrics.fields r.metrics, r.staleness, r.events, r.view_total,
    Option.map (fun (v : Checker.result) -> v.verdict) r.verdict )

(* ————— statistics ————— *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank quantile of sorted samples. *)
let quantile sorted q =
  let k = Array.length sorted in
  if k = 0 then nan
  else sorted.(max 0 (min (k - 1) (int_of_float (ceil (q *. float_of_int k)) - 1)))

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
       /. float_of_int (List.length xs))

let sumf f rs = List.fold_left (fun acc r -> acc +. f r) 0. rs
let sumi f rs = List.fold_left (fun acc r -> acc + f r) 0 rs
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let throughput r = float_of_int r.metrics.updates_incorporated /. r.drain_s

(* ————— rounds ————— *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  figures : (string * float * string) list;  (** name, value, unit *)
  report : string list;  (** human-readable lines *)
}

(* Rounds of every algorithm until [seconds] have passed (at least
   [min_rounds]). Returns the rounds, oldest first. *)
let rounds ~seconds ~min_rounds round =
  let t0 = Clock.now_ns () in
  let rec go acc k =
    if k >= min_rounds && Clock.seconds (Clock.now_ns () - t0) >= seconds then
      List.rev acc
    else go (round k :: acc) (k + 1)
  in
  go [] 0

(* Gate bookkeeping over every run made: an update fails when it is not
   incorporated or its run fails the gate; a read fails when shed. *)
let tally runs =
  let attempted = sumi (fun r -> r.updates + r.reads) runs in
  let failed =
    sumi
      (fun r ->
        if r.failures <> [] then r.updates + r.shed
        else r.updates - r.metrics.updates_incorporated + r.shed)
      runs
  in
  (attempted, failed)

let staleness_quantile r q =
  let st = Array.copy r.staleness in
  Array.sort compare st;
  quantile st q

let messages r =
  r.metrics.updates_received + r.metrics.queries_sent + r.metrics.answers_received

let describe r =
  Printf.sprintf
    "  %-16s setup %.4fs drain %.3fs (%.0f updates/s) check %.3fs  probe x%.3f  view %d  staleness p50 %.2f p99 %.2f (n=%d)  msgs/update %.2f%s%s"
    r.algorithm (median r.setup_s) r.drain_s (throughput r) r.check_s r.scale
    r.view_total
    (staleness_quantile r 0.5) (staleness_quantile r 0.99)
    (Array.length r.staleness) (ratio (messages r) r.updates)
    (match r.verdict with
    | Some v -> "  verdict " ^ Checker.verdict_to_string v.verdict
    | None -> "")
    (match r.failures with
    | [] -> ""
    | fs -> "  GATE FAILED: " ^ String.concat "; " fs)

let run_of name round = List.find (fun r -> r.algorithm = name) round

(* Per algorithm of [w], the median over [rounds] of its samples of [f]. *)
let per_algorithm (w : Workload.t) rounds f =
  List.map
    (fun name ->
      (name, median (List.concat_map (fun rd -> f (run_of name rd)) rounds)))
    w.algorithms

let deterministic rounds =
  match rounds with
  | [] -> true
  | first :: rest ->
      let fp = List.map fingerprint first in
      List.for_all (fun round -> List.map fingerprint round = fp) rest

(* ————— end-to-end metrics (untraced) ————— *)

(* The run's factor from measured to reference seconds: the median of
   its probes, so one noisy probe does not move a figure. *)
let scale runs = median (List.map (fun r -> r.scale) runs)

(* Every algorithm of [w] once; [spans name] traces the algorithm's run. *)
let round ?spans ~seed (w : Workload.t) inputs =
  List.map
    (fun name ->
      run_one ?spans:(Option.map (fun f -> f name) spans) ~seed w inputs name)
    w.algorithms

(* Timings come from every round but the first, which warms the heap
   and caches; all rounds are gated, and the deterministic figures are
   the same in each. Per-algorithm medians are combined by geometric
   mean (a 2x change in any one algorithm counts the same) or summed
   (set-up and checking, which a user pays once per algorithm). *)
let end_to_end ~seconds ~seed (w : Workload.t) inputs =
  let rounds = rounds ~seconds ~min_rounds:4 (fun _ -> round ~seed w inputs) in
  let first = List.hd rounds and timed = List.tl rounds in
  let all_runs = List.concat rounds in
  let attempted, failed = tally all_runs in
  let steady = deterministic rounds in
  let scale = scale (List.concat timed) in
  let total f = scale *. sumf snd (per_algorithm w timed f) in
  let geo f = geomean (List.map f first) in
  let updates = sumi (fun r -> r.updates) first in
  let metrics =
    [ ("setup_s", total (fun r -> r.setup_s), "s");
      ( "updates_per_s",
        geomean (List.map snd (per_algorithm w timed (fun r -> [ throughput r ])))
        /. scale,
        "updates/s" );
      ("check_s", total (fun r -> [ r.check_s ]), "s");
      ( "peak_heap_mb",
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
        /. 1048576.,
        "MB" );
      ( "alloc_words_per_update",
        sumf (fun r -> r.alloc_words) first /. float_of_int updates,
        "words" );
      ("staleness_p50", geo (fun r -> staleness_quantile r 0.5), "sim_time");
      ("staleness_p99", geo (fun r -> staleness_quantile r 0.99), "sim_time");
      ( "messages_per_update",
        ratio (sumi messages first) updates,
        "messages/update" );
      ( "ok_ops_share",
        float_of_int (attempted - failed) /. float_of_int attempted,
        "share" ) ]
  in
  let report =
    Printf.sprintf
      "workload %s: %d rounds (first untimed), reference s = measured s x %.3f, %d staleness samples per round%s"
      w.name (List.length rounds) scale
      (sumi (fun r -> Array.length r.staleness) first)
      (if steady then "" else " — NONDETERMINISTIC across rounds")
    :: List.map describe first
  in
  { correct = steady && List.for_all (fun r -> r.failures = []) all_runs;
    attempted; failed; figures = metrics; report }

(* ————— per-layer metrics (traced) ————— *)

(* The algorithms any workload runs, for the per-algorithm breakdown
   every traced run reports (0 where the workload does not run one). *)
let breakdown_algorithms =
  List.sort_uniq compare
    (List.concat_map (fun (w : Workload.t) -> w.algorithms) Workload.all)

(* The traced pass's spans as a Chrome Trace Event document: one
   thread per algorithm, the first [limit] spans of each. *)
let chrome ~limit named_spans =
  let origin =
    List.fold_left
      (fun acc (_, sp) -> if Spans.count sp = 0 then acc else min acc (Spans.first_start sp))
      max_int named_spans
  in
  let events =
    List.concat
      (List.mapi
         (fun i (name, sp) ->
           Jsonw.obj
             [ ("name", Jsonw.str "thread_name"); ("ph", Jsonw.str "M");
               ("pid", Jsonw.int 1); ("tid", Jsonw.int (i + 1));
               ("args", Jsonw.obj [ ("name", Jsonw.str name) ]) ]
           :: Spans.chrome_events sp ~tid:(i + 1) ~origin_ns:origin ~limit)
         named_spans)
  in
  Jsonw.obj
    [ ("traceEvents", Jsonw.list events); ("displayTimeUnit", Jsonw.str "ns");
      ( "otherData",
        Jsonw.obj
          (List.map
             (fun (name, sp) ->
               ( name,
                 Jsonw.str
                   (Printf.sprintf "%d spans recorded, first %d exported"
                      (Spans.count sp) (min limit (Spans.count sp))) ))
             named_spans) ) ]

let layer_stats named_spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (_, sp) ->
      List.iter
        (fun (label, (s : Spans.stat)) ->
          let c, t, f =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl label)
          in
          Hashtbl.replace tbl label
            (c + s.calls, t + s.total_ns, f + s.self_ns))
        (Spans.stats sp))
    named_spans;
  fun label -> Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl label)

(* Alternate untraced and traced rounds until [seconds] have passed;
   the first traced round gives the layer table and the span export,
   the pairs give the tracing overhead. Returns the outcome and the
   Chrome document. *)
let per_layer ~seconds ~seed ~span_limit (w : Workload.t) inputs =
  let pair k =
    let plain = round ~seed w inputs in
    let named = List.map (fun name -> (name, Spans.create ())) w.algorithms in
    let traced =
      round ~spans:(fun name -> List.assoc name named) ~seed w inputs
    in
    (* later rounds only time the overhead; their spans are dropped *)
    (plain, traced, if k = 0 then named else [])
  in
  let pairs = rounds ~seconds ~min_rounds:1 pair in
  let plain_rounds = List.map (fun (p, _, _) -> p) pairs in
  let _, traced, named = List.hd pairs in
  let all_runs = List.concat_map (fun (p, t, _) -> p @ t) pairs in
  let attempted, failed = tally all_runs in
  let same =
    deterministic (plain_rounds @ List.map (fun (_, t, _) -> t) pairs)
  in
  let stat = layer_stats named in
  let calls l = let c, _, _ = stat l in float_of_int c in
  let total_s l = let _, t, _ = stat l in Clock.seconds t in
  let self_s l = let _, _, f = stat l in Clock.seconds f in
  let m f = sumi (fun r -> f r.metrics) traced in
  let updates = sumi (fun r -> r.updates) traced in
  let per_update x = ratio x updates in
  let scale = scale (List.concat plain_rounds) in
  let throughputs = per_algorithm w plain_rounds (fun r -> [ throughput r /. scale ]) in
  let algo_metrics =
    List.concat_map
      (fun name ->
        let tput = Option.value ~default:0. (List.assoc_opt name throughputs) in
        let p99 =
          match List.find_opt (fun r -> r.algorithm = name) traced with
          | Some r -> staleness_quantile r 0.99
          | None -> 0.
        in
        [ (Printf.sprintf "warehouse.%s.updates_per_s" name, tput, "updates/s");
          (Printf.sprintf "warehouse.%s.staleness_p99" name, p99, "sim_time") ])
      breakdown_algorithms
  in
  let overhead =
    median
      (List.map
         (fun (p, t, _) ->
           let drain = sumf (fun r -> r.drain_s) in
           drain t /. drain p)
         pairs)
  in
  let metrics =
    [ ("sim.engine.events", float_of_int (sumi (fun r -> r.events) traced), "count");
      ("sim.engine.self_s", self_s "sim.engine.run", "s");
      ("sim.channel.sends", calls "sim.channel.send", "count");
      ("sim.channel.send_s", total_s "sim.channel.send", "s");
      ("source.handle.calls", calls "source.handle", "count");
      ("source.handle.self_s", self_s "source.handle", "s");
      ( "source.answer_tuples_per_query",
        ratio (m (fun m -> m.answer_weight)) (m (fun m -> m.answers_received)),
        "tuples/query" );
      ("source.unindexed_scans", float_of_int (sumi (fun r -> r.scans) traced), "count");
      ("source.local_update.calls", calls "source.local_update", "count");
      ("source.local_update.self_s", self_s "source.local_update", "s");
      ( "warehouse.algorithm.self_s",
        self_s "warehouse.on_update" +. self_s "warehouse.on_answer",
        "s" );
      ("warehouse.compensations", float_of_int (m (fun m -> m.compensations)), "count");
      ( "warehouse.max_queue",
        float_of_int
          (List.fold_left (fun acc r -> max acc r.metrics.max_queue) 0 traced),
        "updates" );
      ( "warehouse.updates_per_install",
        ratio (m (fun m -> m.updates_incorporated)) (m (fun m -> m.installs)),
        "updates/install" );
      ("warehouse.deliver.calls", calls "warehouse.deliver", "count");
      ("warehouse.deliver.self_s", self_s "warehouse.deliver", "s");
      ("warehouse.install.calls", calls "warehouse.install", "count");
      ("warehouse.install.s", total_s "warehouse.install", "s");
      ("warehouse.local_answers", float_of_int (m (fun m -> m.local_answers)), "count");
      ( "warehouse.aux_hit_rate",
        ratio (m (fun m -> m.local_answers))
          (m (fun m -> m.local_answers + m.queries_sent)),
        "share" ) ]
    @ algo_metrics
    @ [ ("protocol.link_send.calls", calls "protocol.link_send", "count");
        ("protocol.link_send.s", total_s "protocol.link_send", "s");
        ( "protocol.retransmissions",
          float_of_int (sumi (fun r -> r.retransmissions) traced),
          "count" );
        ( "protocol.duplicates_suppressed",
          float_of_int (sumi (fun r -> r.duplicates_suppressed) traced),
          "count" );
        ("durability.capture.calls", calls "durability.capture", "count");
        ("durability.capture.s", total_s "durability.capture", "s");
        ( "durability.wal_bytes_per_update",
          per_update (sumi (fun r -> r.wal_bytes) traced),
          "bytes/update" );
        ( "durability.checkpoint_bytes_per_update",
          per_update (sumi (fun r -> r.checkpoint_bytes) traced),
          "bytes/update" );
        ( "consistency.states_checked",
          float_of_int
            (sumi
               (fun r ->
                 match r.verdict with Some v -> v.states_checked | None -> 0)
               traced),
          "count" );
        ( "consistency.history_installs",
          float_of_int (sumi (fun r -> r.history_installs) traced),
          "count" );
        ( "observability.spans",
          float_of_int (sumi (fun r -> r.obs_spans) traced),
          "count" );
        ("serving.read.calls", calls "serving.read", "count");
        ("serving.read.s", total_s "serving.read", "s");
        ("serving.reads_shed", float_of_int (sumi (fun r -> r.shed) traced), "count");
        ("trace_overhead", overhead, "ratio") ]
  in
  let report =
    Printf.sprintf "workload %s traced: %d untraced/traced pairs%s" w.name
      (List.length pairs)
      (if same then "" else " — traced and untraced outputs DIFFER")
    :: List.map
         (fun (label, (c, t, f)) ->
           Printf.sprintf "  %-22s %9d calls  total %.4fs  self %.4fs" label c
             (Clock.seconds t) (Clock.seconds f))
         (List.sort compare
            (List.map
               (fun l -> (l, stat l))
               (List.sort_uniq compare
                  (List.concat_map
                     (fun (_, sp) ->
                       List.filter_map
                         (fun (l, (s : Spans.stat)) ->
                           if s.calls > 0 then Some l else None)
                         (Spans.stats sp))
                     named))))
  in
  ( { correct = same && List.for_all (fun r -> r.failures = []) all_runs;
      attempted; failed; figures = metrics; report },
    chrome ~limit:span_limit named )
