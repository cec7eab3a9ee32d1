(* The benchmark's own wiring of the public layer constructors, after
   Experiment.run: per source a Source_node with an up and a down link,
   one warehouse Node, and optionally a WAL store, a serving tier and
   the consistency checker. With [?spans] every layer boundary the
   benchmark calls is wrapped here, outside lib/; without it the
   layers get the bare closures and algorithm modules. *)

open Repro_relational
open Repro_sim
open Repro_protocol
open Repro_source
open Repro_warehouse
open Repro_consistency
open Repro_durability
module Obs = Repro_observability.Obs
module Tracer = Repro_observability.Tracer
module Server = Repro_serving.Server

type links =
  | Channels  (** reliable FIFO Channels, the paper's §2 network *)
  | Transport of Fault.link  (** Transport over lossy channels *)

type config = {
  latency : Latency.t;
  links : links;
  aux : Aux_store.mode;
  checkpoint_every : int option;  (** attach a WAL + checkpoint store *)
  obs : bool;  (** structured observability on *)
  history : bool;  (** record the install history and run Checker.check *)
  serving : bool;  (** attach a Server and replay the inputs' reads *)
}

type t = {
  inputs : Inputs.t;
  spans : Spans.t option;
  engine : Engine.t;
  node : Node.t;
  sources : Source_node.t array;
  store : Store.t option;
  server : Server.t option;
  obs : Obs.t;
  link_stats : (unit -> Transport.stats) list;
  mutable staleness : float list;  (* install - commit, newest first *)
  setup_ns : int;
}

(* [around spans label f] is [f], wrapped in a span when tracing. *)
let around spans label f =
  match spans with None -> f | Some sp -> Spans.wrap sp label f

let create ?spans ~seed (config : config) (inputs : Inputs.t) algorithm =
  let view = inputs.view in
  let n = View_def.n_sources view in
  let initial = Array.map Relation.copy inputs.initial in
  let engine = Engine.create ~seed () in
  let rng = Engine.rng engine in
  let obs =
    if config.obs then Obs.create ~clock:(Engine.clock engine) ()
    else Obs.disabled ()
  in
  let trace = Trace.create ~enabled:false () in
  let algorithm =
    match spans with None -> algorithm | Some sp -> Traced.algorithm sp algorithm
  in
  let node = ref None in
  let the_node () = Option.get !node in
  let deliver =
    match spans with
    | None -> fun msg -> Node.deliver (the_node ()) msg
    | Some sp ->
        let id = Spans.intern sp "warehouse.deliver" in
        fun msg ->
          let s = Spans.enter sp id in
          (match msg with
          | Message.Update_notice u -> Spans.set_txn sp s u.txn
          | _ -> ());
          Node.deliver (the_node ()) msg;
          Spans.leave sp s
  in
  let t0 = Clock.now_ns () in
  let link_stats = ref [] in
  let channel (type a) ~(deliver : a -> unit) : a -> unit =
    let ch =
      Channel.create engine ~latency:config.latency ~rng:(Rng.split rng)
        ~deliver
    in
    around spans "sim.channel.send" (Channel.send ch)
  in
  let transport (type a) faults label ~(deliver : a -> unit) :
      a Transport.link =
    let l =
      Transport.connect ~config:(Transport.config_for config.latency) ~faults
        ~obs ~label engine ~latency:config.latency ~rng:(Rng.split rng)
        ~deliver ()
    in
    link_stats := (fun () -> Transport.link_stats l) :: !link_stats;
    l
  in
  let ups = ref [] and downs = ref [] in
  let up_send =
    Array.init n (fun i ->
        match config.links with
        | Channels -> channel ~deliver
        | Transport faults ->
            let l = transport faults (Printf.sprintf "up%d" i) ~deliver in
            ups := l :: !ups;
            around spans "protocol.link_send" (Transport.link_send l))
  in
  let sources =
    Array.init n (fun i ->
        Source_node.create engine ~view ~id:i ~init:initial.(i)
          ~send:up_send.(i) ~trace)
  in
  let down_send =
    Array.init n (fun i ->
        let deliver = around spans "source.handle" (Source_node.handle sources.(i)) in
        match config.links with
        | Channels -> channel ~deliver
        | Transport faults ->
            let l = transport faults (Printf.sprintf "down%d" i) ~deliver in
            downs := l :: !downs;
            around spans "protocol.link_send" (Transport.link_send l))
  in
  let initial_view = Algebra.eval view (fun i -> initial.(i)) in
  let aux = Aux_store.create ~view ~mode:config.aux ~initial:inputs.initial () in
  let store =
    Option.map
      (fun checkpoint_every -> Store.create ~checkpoint_every ())
      config.checkpoint_every
  in
  let warehouse =
    Node.create engine ~view ~algorithm
      ~send:(fun i msg -> down_send.(i) msg)
      ~init:initial_view ?durability:store ~aux
      ~record_history:config.history ~trace ~obs ()
  in
  node := Some warehouse;
  Option.iter
    (fun store ->
      let ups = Array.of_list (List.rev !ups)
      and downs = Array.of_list (List.rev !downs) in
      Store.set_capture store
        (around spans "durability.capture" (fun () ->
             Node.checkpoint warehouse ~wal_pos:(Store.wal_length store)
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
                    downs))))
    store;
  let server =
    if not config.serving then None
    else begin
      let srv =
        Server.create ~engine ~rng:(Rng.split rng) ~obs ~n_sources:n
          ~view:(fun () -> Node.view_contents warehouse)
          ()
      in
      Node.add_delivery_listener warehouse (fun (u : Message.update) ->
          Server.note_delivery srv ~source:u.txn.source ~txn:u.txn.seq);
      Node.add_install_txns_listener warehouse (fun txns ->
          Server.note_install srv
            (List.map (fun (id : Message.txn_id) -> (id.source, id.seq)) txns));
      Some srv
    end
  in
  let setup_ns = Clock.now_ns () - t0 in
  (* Replay the schedule. Commit times are kept per source by txn seq,
     which Base_table numbers 0, 1, … per source. *)
  let per_source = Array.make n 0 in
  Array.iter (fun (_, s, _) -> per_source.(s) <- per_source.(s) + 1)
    inputs.updates;
  let commit = Array.map (fun k -> Array.make k nan) per_source in
  let rig =
    { inputs; spans; engine; node = warehouse; sources; store; server; obs;
      link_stats = !link_stats; staleness = []; setup_ns }
  in
  Node.add_install_txns_listener warehouse (fun txns ->
      let now = Engine.now engine in
      List.iter
        (fun (id : Message.txn_id) ->
          rig.staleness <- (now -. commit.(id.source).(id.seq)) :: rig.staleness)
        txns);
  let local_update =
    match spans with
    | None -> fun src delta -> Source_node.local_update src delta
    | Some sp ->
        let id = Spans.intern sp "source.local_update" in
        fun src delta ->
          let s = Spans.enter sp id in
          let txn = Source_node.local_update src delta in
          Spans.set_txn sp s txn;
          Spans.leave sp s;
          txn
  in
  Array.iter
    (fun (time, source, delta) ->
      Engine.at engine ~time (fun () ->
          let txn = local_update sources.(source) delta in
          commit.(txn.source).(txn.seq) <- Engine.now engine))
    inputs.updates;
  Option.iter
    (fun srv ->
      let read =
        around spans "serving.read" (fun (session, kind) ->
            ignore (Server.read srv ~session ~kind))
      in
      Array.iter
        (fun (time, session, kind) ->
          Engine.at engine ~time (fun () -> read (session, kind)))
        inputs.reads)
    server;
  rig

(* Drain to quiescence; returns wall ns and the words allocated
   (minor + major - promoted) while draining. *)
let drain rig =
  let run = around rig.spans "sim.engine.run" (fun () -> Engine.run rig.engine) in
  let minor0, promoted0, major0 = Gc.counters () in
  let t0 = Clock.now_ns () in
  let stop = run () in
  let ns = Clock.now_ns () - t0 in
  let minor1, promoted1, major1 = Gc.counters () in
  if stop <> `Drained then failwith "Rig.drain: engine did not drain";
  (ns, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

let observation rig =
  { Checker.initial_sources = rig.inputs.initial;
    deliveries = Node.deliveries rig.node;
    installs =
      List.map
        (fun (r : Node.install_record) -> (r.txns, r.view_after))
        (Node.installs rig.node);
    final_view = Node.view_contents rig.node }

(* The view a correct maintainer must end with: the view definition
   evaluated over the sources' final base relations. *)
let oracle rig =
  Relation.as_bag
    (Algebra.eval rig.inputs.view (fun i ->
         Base_table.relation (Source_node.table rig.sources.(i))))

let check rig =
  around rig.spans "consistency.check"
    (fun () -> Checker.check rig.inputs.view (observation rig)) ()

let metrics rig = Node.metrics rig.node
let view rig = Node.view_contents rig.node
let staleness rig = Array.of_list (List.rev rig.staleness)

let unindexed_scans rig =
  Array.fold_left
    (fun acc s -> acc + Base_table.scan_count (Source_node.table s))
    0 rig.sources

let transport_stats rig = List.map (fun read -> read ()) rig.link_stats
