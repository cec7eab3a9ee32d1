open Repro_relational
open Repro_sim
open Repro_protocol

type ctx = {
  engine : Engine.t;
  view : View_def.t;
  trace : Trace.t;
  obs : Repro_observability.Obs.t;
  metrics : Metrics.t;
  aux : Aux_store.t;
  queue : Update_queue.t;
  send : int -> Message.to_source -> unit;
  install : Delta.t -> txns:Update_queue.entry list -> unit;
  view_contents : unit -> Bag.t;
  fresh_qid : unit -> int;
  source_ok : int -> bool;
  stall_cap : int;
}

module type S = sig
  type t

  val name : string
  val create : ctx -> t
  val on_update : t -> Update_queue.entry -> unit
  val on_answer : t -> Message.to_warehouse -> unit
  val on_source_down : t -> int -> unit
  val on_source_up : t -> int -> unit
  val idle : t -> bool

  (** Freeze the algorithm's resumable state for a checkpoint. Must be a
      deep copy: the returned tree may outlive arbitrary further
      mutation of [t]. *)
  val snapshot : t -> Repro_durability.Snap.t

  (** Rebuild from a {!snapshot} against a fresh context (crash
      recovery). [restore ctx (snapshot t)] must behave identically to
      [t] for all future events. *)
  val restore : ctx -> Repro_durability.Snap.t -> t
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let instantiate (module A : S) ctx = Packed ((module A), A.create ctx)
let packed_name (Packed ((module A), _)) = A.name
let packed_on_update (Packed ((module A), st)) e = A.on_update st e
let packed_on_answer (Packed ((module A), st)) m = A.on_answer st m
let packed_on_source_down (Packed ((module A), st)) i = A.on_source_down st i
let packed_on_source_up (Packed ((module A), st)) i = A.on_source_up st i
let packed_idle (Packed ((module A), st)) = A.idle st
let packed_snapshot (Packed ((module A), st)) = A.snapshot st

let restore_packed (module A : S) ctx snap =
  Packed ((module A), A.restore ctx snap)

(* Shared (de)serialization of queue entries: algorithms checkpoint the
   entries they hold references to (pending lists, frames) by value. *)

module Snap = Repro_durability.Snap

let snap_of_entry (e : Update_queue.entry) =
  Snap.List [ Snap.Update e.update; Snap.Int e.arrival; Snap.Float e.arrived_at ]

let entry_of_snap s =
  match Snap.to_list s with
  | [ u; a; t ] ->
      { Update_queue.update = Snap.to_update u; arrival = Snap.to_int a;
        arrived_at = Snap.to_float t }
  | _ -> invalid_arg "Algorithm.entry_of_snap: malformed entry"

(* ————— self-maintenance helper (shared by the sweep-family algorithms) ————— *)

(* Try to answer the leg joining [partial] with source [target] from the
   aux store; on success count it, trace it, and return the extended
   partial. [overlay] is the algorithm's delivered-but-uninstalled delta
   of [target] (see Aux_store.local_answer). *)
let local_answer ctx ~name ?span ~target ~partial ~overlay () =
  match Aux_store.local_answer ctx.aux ~target ~partial ~overlay with
  | None -> None
  | Some p ->
      ctx.metrics.Metrics.local_answers <-
        ctx.metrics.Metrics.local_answers + 1;
      Trace.emit ctx.trace ~time:(Engine.now ctx.engine) ~who:"warehouse"
        "%s: leg %d answered locally from aux store" name target;
      if Repro_observability.Obs.active ctx.obs then
        Repro_observability.Obs.event ctx.obs ?span (name ^ ".local-answer")
          [ ("source", Repro_observability.Tracer.I target) ];
      Some p
