open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_source
open Repro_warehouse
open Repro_consistency
open Repro_workload
open Repro_durability
module Obs = Repro_observability.Obs
module Backpressure = Repro_serving.Backpressure
module Server = Repro_serving.Server
module Read_gen = Repro_serving.Read_gen

(* The harness's single sanctioned wall-clock read. The values feed only
   the reporting fields (wall_seconds, recovery_seconds) — never a
   simulation decision, which depend solely on the seeded virtual
   clock. *)
let wall_clock () =
  Unix.gettimeofday ()  (* lint: allow L1 reporting-only; results carry wall times but no simulation decision reads them *)

type result = {
  scenario : Scenario.t;
  algorithm : string;
  metrics : Metrics.t;
  verdict : Checker.result;
  sim_time : float;
  wall_seconds : float;
  final_view_tuples : int;
  final_view : Bag.t;
  events : int;
  completed : bool;
  degraded : bool;
  reads : Server.record list;  (** serve-order read log; [] without serving *)
  sessions : Checker.session_report option;
}

(* Every algorithm the harness can run, in the order [algorithms_for]
   lines them up. ECA needs the centralized site; Global SWEEP is SWEEP
   on streams without global transactions, so it runs only by name. The
   builder takes the scenario's batch cap, which only sweep-batched
   reads. *)
type availability = Everywhere | Centralized_only | By_name_only

let registry : (string * availability * (int -> (module Algorithm.S))) list =
  let fixed m (_ : int) = m in
  [ ("sweep", Everywhere, fixed (module Sweep : Algorithm.S));
    ("sweep-parallel", Everywhere, fixed (module Sweep_parallel : Algorithm.S));
    ( "sweep-pipelined",
      Everywhere,
      fixed (module Sweep_pipelined : Algorithm.S) );
    ("sweep-batched", Everywhere, Sweep_batched.with_batch_max);
    ("sweep-global", By_name_only, fixed (module Sweep_global : Algorithm.S));
    ("nested-sweep", Everywhere, fixed (module Nested_sweep : Algorithm.S));
    ("strobe", Everywhere, fixed (module Strobe : Algorithm.S));
    ("c-strobe", Everywhere, fixed (module C_strobe : Algorithm.S));
    ("naive", Everywhere, fixed (module Naive : Algorithm.S));
    ("recompute", Everywhere, fixed (module Recompute : Algorithm.S));
    ("eca", Centralized_only, fixed (module Eca : Algorithm.S)) ]

let algorithm_names = List.map (fun (name, _, _) -> name) registry

let algorithm_by_name ?(batch_max = 16) name =
  List.find_map
    (fun (n, _, build) -> if n = name then Some (build batch_max) else None)
    registry

let algorithms_for (s : Scenario.t) =
  List.filter_map
    (fun (name, availability, build) ->
      match (availability, s.topology) with
      | Everywhere, _ | Centralized_only, Scenario.Centralized ->
          Some (name, build s.batch_max)
      | (Centralized_only | By_name_only), _ -> None)
    registry

let run ?(check = true) ?(trace = Trace.create ()) ?(obs = Obs.disabled ())
    ?max_events ?(on_node = ignore) (scenario : Scenario.t)
    (algorithm : (module Algorithm.S)) =
  let wall_start = wall_clock () in
  let strategy = scenario.join_strategy in
  let engine = Engine.create ~seed:scenario.seed () in
  Obs.set_clock obs (Engine.clock engine);
  let rng = Engine.rng engine in
  let view = Chain.view ~n:scenario.n_sources () in
  let data_rng = Rng.split rng in
  let initial =
    Chain.populate view ~size:scenario.init_size ~domain:scenario.domain
      data_rng
  in
  let initial_copy = Array.map Relation.copy initial in
  let initial_view = Algebra.eval view (fun i -> initial.(i)) in
  let node = ref None in
  let the_node () =
    match !node with
    | Some n -> n
    | None -> invalid_arg "Experiment.run: message before wiring complete"
  in
  let n = scenario.n_sources in
  let faulty = Fault.is_faulty scenario.faults in
  let wh_crashes = scenario.faults.Fault.wh_crashes in
  let metrics = Metrics.create () in
  (* Query deadlines + circuit breakers arm only on the faulty
     distributed wiring: the deadline lives in the transport senders on
     the warehouse→source links, and the breaker is the warehouse-side
     policy fed by their expiries. *)
  let breaker =
    match (scenario.deadline, scenario.topology, faulty) with
    | Some _, Scenario.Distributed, true ->
        Some
          (Breaker.create engine ~rng:(Rng.split rng)
             ~config:
               { Breaker.default_config with
                 k = scenario.breaker_k; probe_limit = scenario.probe_limit }
             ~obs ~metrics ~n)
    | _ -> None
  in
  (* warehouse-side down-link endpoints, newest first (reversed below) *)
  let up_links : Message.to_warehouse Transport.link list ref = ref [] in
  let down_links : Message.to_source Transport.link list ref = ref [] in
  let down_sender i =
    match List.nth_opt (List.rev !down_links) i with
    | Some l -> Some (Transport.link_sender l)
    | None -> None
  in
  let resume_if_suspended i =
    match down_sender i with
    | Some s when Transport.sender_suspended s -> Transport.resume_sender s
    | _ -> ()
  in
  let deliver msg =
    Node.deliver (the_node ()) msg;
    (* The delivery may have been the answer that closed a breaker while
       its sender sat suspended on an expired deadline. Resume it, so
       the queries the heal-triggered replay just issued (buffered while
       suspended) actually go out. *)
    match breaker with
    | None -> ()
    | Some b ->
        for i = 0 to n - 1 do
          if Breaker.source_ok b i then resume_if_suspended i
        done
  in
  (* Crash windows close a source's network boundary in both directions;
     the transport keeps retransmitting into the partition and gets
     through once it heals. A warehouse outage instead closes only the
     channels that deliver *into* the warehouse — data on up links, acks
     on down links — while the still-live sources keep receiving. *)
  let gate i () =
    not (Fault.crashed scenario.faults ~source:i ~time:(Engine.now engine))
  in
  let wh_down = ref false in
  let wh_ok () = not !wh_down in
  let tconfig = Transport.config_for scenario.latency in
  (* queries carry a deadline only when the breaker is armed; update
     notices (up links) keep the legacy retransmit-until-healed senders *)
  let down_config =
    match breaker with
    | Some _ -> { tconfig with Transport.deadline = scenario.deadline }
    | None -> tconfig
  in
  (* per-link stat readers, type-erased (up links carry to_warehouse,
     down links to_source) *)
  let link_stats : (unit -> Transport.stats * int) list ref = ref [] in
  let reliable_link (type a) ?on_deadline ?on_ack i ~(dir : [ `Up | `Down ])
      ~(deliver : a -> unit) : a Transport.link =
    let data_gate, ack_gate =
      match dir with
      | `Up -> ((fun () -> gate i () && wh_ok ()), gate i)
      | `Down -> (gate i, fun () -> gate i () && wh_ok ())
    in
    let config = match dir with `Up -> tconfig | `Down -> down_config in
    let label =
      Printf.sprintf "%s%d" (match dir with `Up -> "up" | `Down -> "down") i
    in
    let l =
      Transport.connect ~config ?on_deadline ?on_ack
        ~faults:scenario.faults.Fault.link ~data_gate ~ack_gate ~obs ~label
        engine ~latency:scenario.latency ~rng:(Rng.split rng) ~deliver ()
    in
    link_stats :=
      (fun () -> (Transport.link_stats l, Transport.link_frames_lost l))
      :: !link_stats;
    l
  in
  (* The warehouse-side transport endpoints, kept for checkpointing and
     crash recovery: each up link's receiver, each down link's sender.
     Collected newest first; reversed when frozen into arrays below. *)
  let mk_up i ~deliver =
    let l = reliable_link i ~dir:`Up ~deliver in
    up_links := l :: !up_links;
    Transport.link_send l
  in
  let mk_down i ~deliver =
    (* a deadline expiry already suspended the sender; below [k]
       consecutive expiries the breaker says retry (resume, fresh
       clock), at [k] it trips and the sender stays parked until a
       probe or a heal resumes it *)
    let self = ref None in
    let on_deadline ~seq:_ =
      match breaker with
      | None -> ()
      | Some b -> (
          match Breaker.record_timeout b i with
          | Breaker.Retry ->
              Option.iter
                (fun l -> Transport.resume_sender (Transport.link_sender l))
                !self
          | Breaker.Tripped -> ())
    in
    (* an ack on this link is round-trip proof the source is alive — the
       only proof available when the query was delivered but its ack was
       lost (the source will never answer the dup-suppressed
       retransmission) *)
    let on_ack ~seq:_ =
      match breaker with
      | None -> ()
      | Some b ->
          Breaker.record_success b i;
          if Breaker.source_ok b i then
            Option.iter
              (fun l ->
                let s = Transport.link_sender l in
                if Transport.sender_suspended s then Transport.resume_sender s)
              !self
    in
    let l = reliable_link i ~dir:`Down ~on_deadline ~on_ack ~deliver in
    self := Some l;
    down_links := l :: !down_links;
    Transport.link_send l
  in
  (* apply: how the workload performs an update at "source i";
     scan_total: probes across this run's own base tables that degraded
     to O(n) scans — under the default Probe strategy the suites
     assert 0. *)
  let send_to, apply, scan_total =
    match scenario.topology with
    | Scenario.Distributed ->
        let up_send =
          Array.init n (fun i ->
              if faulty then (mk_up i ~deliver : Message.to_warehouse -> unit)
              else
                let ch =
                  Channel.create engine ~latency:scenario.latency
                    ~rng:(Rng.split rng) ~deliver
                in
                Channel.send ch)
        in
        let sources =
          Array.init n (fun i ->
              Source_node.create ~strategy engine ~view ~id:i
                ~init:initial.(i)
                ~send:(fun m -> up_send.(i) m)
                ~trace)
        in
        let down_send =
          Array.init n (fun i ->
              let deliver m = Source_node.handle sources.(i) m in
              if faulty then (mk_down i ~deliver : Message.to_source -> unit)
              else
                let ch =
                  Channel.create engine ~latency:scenario.latency
                    ~rng:(Rng.split rng) ~deliver
                in
                Channel.send ch)
        in
        ( (fun i msg -> down_send.(i) msg),
          (fun ~source ~global delta ->
            let global =
              Option.map
                (fun (gid, parts) -> { Repro_protocol.Message.gid; parts })
                global
            in
            ignore (Source_node.local_update ?global sources.(source) delta)),
          fun () ->
            Array.fold_left
              (fun acc s ->
                acc + Base_table.scan_count (Source_node.table s))
              0 sources )
    | Scenario.Centralized ->
        (* the single site plays the role of "source 0" for crash windows *)
        let up =
          if faulty then mk_up 0 ~deliver
          else
            let ch =
              Channel.create engine ~latency:scenario.latency
                ~rng:(Rng.split rng) ~deliver
            in
            Channel.send ch
        in
        let site =
          Eca_site.create ~strategy engine ~view ~inits:initial ~send:up
            ~trace
        in
        let deliver_down m = Eca_site.handle site m in
        let down =
          if faulty then mk_down 0 ~deliver:deliver_down
          else
            let ch =
              Channel.create engine ~latency:scenario.latency
                ~rng:(Rng.split rng) ~deliver:deliver_down
            in
            Channel.send ch
        in
        ( (fun _i msg -> down msg),
          (fun ~source ~global:_ delta ->
            (* the centralized site applies type-3 parts as local updates *)
            ignore (Eca_site.local_update site ~source delta)),
          fun () ->
            let acc = ref 0 in
            for i = 0 to n - 1 do
              acc := !acc + Base_table.scan_count (Eca_site.table site i)
            done;
            !acc )
  in
  let store =
    if wh_crashes <> [] then
      Some (Store.create ~checkpoint_every:scenario.checkpoint_every ())
    else None
  in
  let aux =
    Aux_store.create ~view ~mode:scenario.aux_mode ~strategy
      ~initial:initial_copy ()
  in
  let warehouse =
    Node.create engine ~view ~algorithm ~send:send_to ~init:initial_view
      ?durability:store ~metrics ?queue_capacity:scenario.queue_capacity
      ?breaker ~aux ~stall_cap:scenario.stall_cap ~record_history:check ~trace
      ~obs ()
  in
  node := Some warehouse;
  on_node warehouse;
  (* probe = retransmit the parked query through the suspended sender;
     the source's answer (routed to Breaker.record_success by the node)
     is the heal evidence that closes the breaker *)
  (match breaker with
  | None -> ()
  | Some b -> Breaker.set_on_probe b resume_if_suspended);
  (* Bounded queue: admission control where updates are born. Tokens
     return when the warehouse reports transactions incorporated; the
     listener registration survives crash recovery with the node. *)
  let bp =
    Option.map
      (fun capacity -> Backpressure.create ~n_sources:n ~capacity)
      scenario.queue_capacity
  in
  let apply =
    match bp with
    | None -> apply
    | Some bp ->
        Node.add_incorporate_listener warehouse (fun k ->
            Backpressure.release bp k);
        fun ~source ~global delta ->
          Backpressure.submit bp ~source ~noop:(Delta.is_empty delta)
            (fun () -> apply ~source ~global delta)
  in
  (match store with
  | None -> ()
  | Some store ->
      let ups = Array.of_list (List.rev !up_links) in
      let downs = Array.of_list (List.rev !down_links) in
      (* In the centralized topology all traffic shares link 0 even
         though transactions carry source ids 0..n-1. *)
      let li j = if Array.length ups = 1 then 0 else j in
      Store.set_capture store (fun () ->
          Node.checkpoint (the_node ())
            ~wal_pos:(Store.wal_length store)
            ~recv_expected:
              (Array.map
                 (fun l ->
                   Transport.receiver_expected (Transport.link_receiver l))
                 ups)
            ~senders:
              (Array.map
                 (fun l ->
                   let next_seq, acked_upto, window =
                     Transport.sender_state (Transport.link_sender l)
                   in
                   { Checkpoint.next_seq; acked_upto; window })
                 downs));
      let crash () =
        wh_down := true;
        metrics.Metrics.wh_crashes <- metrics.Metrics.wh_crashes + 1;
        (* the dead warehouse must stop retransmitting queries, and its
           breaker must stop probing (recovery restores it from the
           checkpoint, re-scheduling probes for still-open sources) *)
        (match breaker with Some b -> Breaker.halt b | None -> ());
        Array.iter
          (fun l -> Transport.halt_sender (Transport.link_sender l))
          downs
      in
      let recover () =
        let t0 = wall_clock () in
        wh_down := false;
        let checkpoint = Store.latest_checkpoint store in
        let tail = Store.tail store in
        (* Receivers restart at [checkpointed expected + records replayed
           on that link]: everything the old incarnation delivered (and
           acked) is on the WAL; held out-of-order frames were never
           acked and will be retransmitted. *)
        let expected =
          match checkpoint with
          | Some (c : Checkpoint.t) -> Array.copy c.recv_expected
          | None -> Array.make (Array.length ups) 0
        in
        List.iter
          (fun r ->
            match Wal.link_of r with
            | Some j -> expected.(li j) <- expected.(li j) + 1
            | None -> ())
          tail;
        Array.iteri
          (fun j l ->
            Transport.reset_receiver (Transport.link_receiver l)
              ~expected:expected.(j))
          ups;
        (* Senders resume from the checkpoint (or from genesis), so the
           sends replay regenerates carry their original sequence
           numbers and the sources suppress them as duplicates. *)
        Array.iteri
          (fun j l ->
            let s = Transport.link_sender l in
            match checkpoint with
            | Some (c : Checkpoint.t) ->
                let st = c.senders.(j) in
                Transport.restore_sender s ~next_seq:st.Checkpoint.next_seq
                  ~acked_upto:st.Checkpoint.acked_upto
                  ~window:st.Checkpoint.window
            | None ->
                Transport.restore_sender s ~next_seq:0 ~acked_upto:(-1)
                  ~window:[])
          downs;
        let fresh = Node.recover ~prev:(the_node ()) ?checkpoint () in
        node := Some fresh;
        Node.begin_replay fresh;
        List.iter (Node.replay_record fresh) tail;
        Node.end_replay fresh;
        metrics.Metrics.replayed_records <-
          metrics.Metrics.replayed_records + List.length tail;
        metrics.Metrics.recovery_seconds <-
          metrics.Metrics.recovery_seconds +. (wall_clock () -. t0)
      in
      List.iter
        (fun (o : Fault.outage) ->
          Engine.at engine ~time:o.wh_down_at crash;
          Engine.at engine ~time:o.wh_up_at recover)
        wh_crashes);
  Update_gen.drive engine (Rng.split rng) scenario.stream ~view
    ~initial:initial_copy ~apply ();
  (* The serving tier attaches only when the scenario asks for reads;
     every rng split below is gated on that, so read-free runs stay
     byte-identical to pre-serving builds. Reads are issued against the
     live node ([the_node] survives crash recovery), staleness is fed by
     the node's delivery and install listeners (both replay-suppressed,
     both carried across recovery). *)
  let server =
    if scenario.read_rate <= 0. then None
    else begin
      let slo = scenario.staleness_slo in
      let config =
        { Server.default_config with
          Server.staleness_slo = slo; staleness_ceiling = slo *. 8.;
          read_cap = scenario.read_cap }
      in
      let srv =
        Server.create ~config ~engine ~rng:(Rng.split rng) ~obs ~n_sources:n
          ~view:(fun () -> Node.view_contents (the_node ()))
          ()
      in
      Node.add_delivery_listener warehouse (fun (u : Message.update) ->
          Server.note_delivery srv ~source:u.Message.txn.Message.source
            ~txn:u.Message.txn.Message.seq);
      Node.add_install_txns_listener warehouse (fun txns ->
          Server.note_install srv
            (List.map
               (fun (id : Message.txn_id) -> (id.Message.source, id.Message.seq))
               txns));
      let horizon =
        let h =
          float_of_int scenario.stream.Update_gen.n_updates
          *. scenario.stream.Update_gen.mean_gap
        in
        if h > 0. then h else 60.  (* read-only run: a fixed window *)
      in
      let rcfg =
        { Read_gen.default with
          Read_gen.rate = scenario.read_rate;
          n_reads =
            Read_gen.reads_over ~rate:scenario.read_rate
              ~burst:scenario.read_burst ~horizon;
          arity = Array.length (View_def.projection view);
          domain = scenario.domain; burst = scenario.read_burst }
      in
      if rcfg.Read_gen.n_reads > 0 then
        Read_gen.drive engine (Rng.split rng) rcfg ~n_sessions:n
          ~read:(fun ~session ~kind ->
            ignore (Server.read srv ~session ~kind))
          ();
      Some srv
    end
  in
  let completed =
    match Engine.run ?max_events engine with
    | `Drained -> true
    | `Max_events -> false
    | `Until -> assert false
  in
  (* the node may have been replaced by crash recovery *)
  let warehouse = the_node () in
  (match breaker with Some b -> Breaker.flush b | None -> ());
  let degraded =
    match breaker with Some b -> Breaker.degraded b | None -> false
  in
  (* A degraded drain is legitimate non-quiescence: abandoned breakers
     leave parked updates in the queue by design. *)
  if completed && (not (Node.idle warehouse)) && not degraded then
    invalid_arg
      (Printf.sprintf
         "Experiment.run: %s did not quiesce after the event queue drained"
         (Node.algorithm_name warehouse));
  (* fold the transport layer's counters into the run's metrics *)
  let m = Node.metrics warehouse in
  List.iter
    (fun read ->
      let s, lost = read () in
      m.Metrics.retransmissions <-
        m.Metrics.retransmissions + s.Transport.retransmissions;
      m.Metrics.timeouts <- m.Metrics.timeouts + s.Transport.timeouts;
      m.Metrics.duplicates_suppressed <-
        m.Metrics.duplicates_suppressed + s.Transport.duplicates_suppressed;
      m.Metrics.recoveries <- m.Metrics.recoveries + s.Transport.recoveries;
      m.Metrics.frames_lost <- m.Metrics.frames_lost + lost)
    !link_stats;
  (match store with
  | Some store ->
      m.Metrics.wal_records <- Store.wal_length store;
      m.Metrics.wal_bytes <- Store.wal_bytes store;
      m.Metrics.checkpoints <- Store.checkpoints store;
      m.Metrics.checkpoint_bytes <- Store.checkpoint_bytes store
  | None -> ());
  (match bp with
  | Some bp ->
      m.Metrics.queue_deferred <- Backpressure.deferred bp;
      m.Metrics.queue_shed <- Backpressure.shed bp
  | None -> ());
  (match server with
  | Some srv ->
      m.Metrics.reads_served <- Server.served srv;
      m.Metrics.reads_stale <- Server.stale srv;
      m.Metrics.reads_shed <- Server.shed srv;
      m.Metrics.read_staleness_p50 <- Server.staleness_p50 srv;
      m.Metrics.read_staleness_p99 <- Server.staleness_p99 srv
  | None -> ());
  (* the storage side of the self-maintenance trade-off (deterministic:
     canonical encoding of the final projections) *)
  if Aux_store.mode aux <> Aux_store.Off then
    m.Metrics.aux_bytes <- Aux_store.bytes aux;
  m.Metrics.unindexed_scans <- scan_total ();
  let sessions =
    Option.map
      (fun srv -> Checker.check_sessions ~n_sources:n (Server.read_log srv))
      server
  in
  let verdict =
    if check && completed then
      Checker.check ~degraded view
        { Checker.initial_sources = initial_copy;
          deliveries = Node.deliveries warehouse;
          installs =
            List.map
              (fun (r : Node.install_record) -> (r.txns, r.view_after))
              (Node.installs warehouse);
          final_view = Node.view_contents warehouse }
    else
      { Checker.verdict = Checker.Convergent; detail = "not checked";
        states_checked = 0 }
  in
  { scenario; algorithm = Node.algorithm_name warehouse;
    metrics = Node.metrics warehouse; verdict; sim_time = Engine.now engine;
    wall_seconds = wall_clock () -. wall_start;
    final_view_tuples = Bag.total (Node.view_contents warehouse);
    final_view = Bag.copy (Node.view_contents warehouse);
    events = Engine.executed engine; completed; degraded;
    reads = (match server with Some srv -> Server.log srv | None -> []);
    sessions }

type scripted_outcome = {
  node : Node.t;
  view : Repro_relational.View_def.t;
  initial_sources : Repro_relational.Relation.t array;
  trace : Trace.t;
  engine : Engine.t;
}

let run_scripted ?(latency = 1.0) ?(seed = 7L) ?(trace_enabled = true)
    ?(obs = Obs.disabled ()) ?(aux_mode = Aux_store.Off)
    ?(join_strategy = Join_strategy.default) ~algorithm ~view ~initial
    ~updates () =
  let open Repro_relational in
  let engine = Engine.create ~seed () in
  Obs.set_clock obs (Engine.clock engine);
  let rng = Engine.rng engine in
  let trace = Trace.create ~enabled:trace_enabled () in
  let initial_copy = Array.map Relation.copy initial in
  let initial_view = Algebra.eval view (fun i -> initial.(i)) in
  let node = ref None in
  let deliver msg = Node.deliver (Option.get !node) msg in
  let n = View_def.n_sources view in
  let up =
    Array.init n (fun _ ->
        Channel.create engine ~latency:(Latency.Fixed latency)
          ~rng:(Rng.split rng) ~deliver)
  in
  let sources =
    Array.init n (fun i ->
        Source_node.create ~strategy:join_strategy engine ~view ~id:i
          ~init:initial.(i)
          ~send:(fun m -> Channel.send up.(i) m)
          ~trace)
  in
  let down =
    Array.init n (fun i ->
        Channel.create engine ~latency:(Latency.Fixed latency)
          ~rng:(Rng.split rng)
          ~deliver:(fun m -> Source_node.handle sources.(i) m))
  in
  let warehouse =
    Node.create engine ~view ~algorithm
      ~send:(fun i msg -> Channel.send down.(i) msg)
      ~init:initial_view
      ~aux:
        (Aux_store.create ~view ~mode:aux_mode ~strategy:join_strategy
           ~initial:initial_copy ())
      ~trace ~obs ()
  in
  node := Some warehouse;
  List.iter
    (fun (time, source, delta) ->
      Engine.at engine ~time (fun () ->
          ignore (Source_node.local_update sources.(source) delta)))
    updates;
  (match Engine.run engine with `Drained -> () | _ -> assert false);
  { node = warehouse; view; initial_sources = initial_copy; trace; engine }

let check_scripted outcome =
  Checker.check outcome.view
    { Checker.initial_sources = outcome.initial_sources;
      deliveries = Node.deliveries outcome.node;
      installs =
        List.map
          (fun (r : Node.install_record) -> (r.txns, r.view_after))
          (Node.installs outcome.node);
      final_view = Node.view_contents outcome.node }

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s on %s:@,  %a@,  verdict: %a (%s)@,  sim time %.1f, %d events, %.3fs wall%s@]"
    r.algorithm r.scenario.Scenario.name Metrics.pp r.metrics
    Checker.pp_verdict r.verdict.Checker.verdict r.verdict.Checker.detail
    r.sim_time r.events r.wall_seconds
    (if r.degraded then " [DEGRADED: breakers open at end of run]" else "");
  match r.sessions with
  | Some s -> Format.fprintf ppf "@,  sessions: %a" Checker.pp_session_report s
  | None -> ()
