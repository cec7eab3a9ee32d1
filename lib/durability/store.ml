open Repro_relational

type t = {
  wal : Wal.t;
  checkpoint_every : int;
  mutable capture : (unit -> Checkpoint.t) option;
  (* the latest view image's bytes and the WAL position it was taken at *)
  mutable image : (string * int) option;
  (* the latest checkpoint's state bytes (no view) and its WAL position *)
  mutable state : (string * int) option;
  (* weight of the install deltas logged since the latest image *)
  mutable installed_since_image : int;
  (* encoding scratch, reused so each checkpoint does not regrow it *)
  buf : Buffer.t;
  mutable records_since : int;
  mutable checkpoints : int;
  mutable checkpoint_bytes : int;
}

let create ?(checkpoint_every = 8) () =
  if checkpoint_every < 0 then invalid_arg "Store.create: checkpoint_every < 0";
  { wal = Wal.create (); checkpoint_every; capture = None; image = None;
    state = None; installed_since_image = 0; buf = Buffer.create 256;
    records_since = 0; checkpoints = 0; checkpoint_bytes = 0 }

let set_capture t f = t.capture <- Some f
let wal_length t = Wal.length t.wal
let wal_bytes t = Wal.bytes t.wal
let checkpoints t = t.checkpoints
let checkpoint_bytes t = t.checkpoint_bytes

let log t record =
  Wal.append t.wal record;
  (match record with
  | Wal.Installed { delta; _ } ->
      t.installed_since_image <- t.installed_since_image + Delta.weight delta
  | Wal.Update_received _ | Wal.Answer_received _ -> ());
  t.records_since <- t.records_since + 1

(* Encode into the scratch buffer and account for the bytes written. *)
let write t put x =
  Buffer.clear t.buf;
  put t.buf x;
  t.checkpoint_bytes <- t.checkpoint_bytes + Buffer.length t.buf;
  Buffer.contents t.buf

let checkpoint_now t =
  match t.capture with
  | None -> invalid_arg "Store.checkpoint_now: no capture function set"
  | Some capture ->
      (* encode immediately: the captured record aliases live state, the
         stored bytes are the durable artifact, and decoding them (rather
         than keeping the live record) is what recovery does —
         serializability is exercised on every cycle *)
      let c = capture () in
      (* A new image once the view has turned over: past that point
         folding the logged deltas would cost more than reading it. *)
      if
        Option.is_none t.image
        || t.installed_since_image >= max 16 (Bag.cardinal c.view)
      then begin
        t.image <- Some (write t Codec.put_bag c.view, c.wal_pos);
        t.installed_since_image <- 0
      end;
      t.state <- Some (write t Checkpoint.put c, c.wal_pos);
      t.checkpoints <- t.checkpoints + 1;
      t.records_since <- 0

let maybe_checkpoint t =
  if
    t.checkpoint_every > 0
    && t.records_since >= t.checkpoint_every
    && Option.is_some t.capture
  then checkpoint_now t

let recovery t =
  match (t.image, t.state) with
  | Some (image, from), Some (state, pos) ->
      let view = Codec.decode Codec.get_bag image in
      (* Fold the installs logged between the image and the checkpoint;
         what follows the checkpoint is the tail. *)
      let rec fold k records =
        if k = 0 then records
        else
          match records with
          | Wal.Installed { delta; _ } :: rest ->
              Bag.merge_into ~into:view delta;
              fold (k - 1) rest
          | _ :: rest -> fold (k - 1) rest
          | [] -> invalid_arg "Store.recovery: checkpoint past the WAL"
      in
      let tail = fold (pos - from) (Wal.records_from t.wal from) in
      (Some (Checkpoint.decode ~view state), tail)
  | _ -> (None, Wal.records_from t.wal 0)

let durable_bytes t =
  match (t.image, t.state) with
  | Some (image, _), Some (state, _) -> Some (image, state)
  | _ -> None
