(* [Store] is the library's main module: re-export the siblings so
   consumers can reach [Store.Shard_db], [Store.Wal], ... *)
module Shard_map = Shard_map
module Shard_db = Shard_db
module Wal = Wal
module Snapshot = Snapshot

module T = Mtree.Merkle_btree
module N = Mtree.Node
module Vo = Mtree.Vo
module W = Wire.W
module R = Wire.R

let src = Logs.Src.create "tcvs.store" ~doc:"Durable server store"

module Log = (val Logs.src_log src : Logs.LOG)

let obs_scope = Obs.Scope.v "store"
let c_ops_logged = Obs.counter ~scope:obs_scope "ops_logged"
let c_checkpoints = Obs.counter ~scope:obs_scope "checkpoints"
let c_recoveries = Obs.counter ~scope:obs_scope "recoveries"
let c_stale_recoveries = Obs.counter ~scope:obs_scope "stale_recoveries"
let c_resumes = Obs.counter ~scope:obs_scope "resumes"
let c_manifest_repairs = Obs.counter ~scope:obs_scope "manifest_repairs"

(* Segment rolls and compactions are triggered by flush cadence, so
   their counts legitimately differ across durability modes: volatile,
   like the wall-clock histograms. *)
let c_rolls = Obs.counter ~scope:obs_scope ~volatile:true "segment_rolls"
let c_compactions = Obs.counter ~scope:obs_scope ~volatile:true "compactions"
let h_recover_us = Obs.histogram ~scope:obs_scope ~volatile:true "recover_us"
let h_checkpoint_us = Obs.histogram ~scope:obs_scope ~volatile:true "checkpoint_us"

let gc_scope = Obs.Scope.v "store.group_commit"
let h_batch_records = Obs.histogram ~scope:gc_scope ~volatile:true "batch_records"
let h_batch_bytes = Obs.histogram ~scope:gc_scope ~volatile:true "batch_bytes"
let h_flush_us = Obs.histogram ~scope:gc_scope ~volatile:true "flush_us"

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)
let ( let* ) = Result.bind

type backup = {
  user : int;
  epoch : int;
  sigma : string;
  last : string;
  gctr : int;
  signature : string;
}

type recovered = {
  db : Shard_db.t;
  ctr : int;
  last_user : int;
  root_sig : string option;
  backups : backup list;
  seqs : (int * int) list;
  replies : (int * int * string) list;
}

type meta = {
  m_ctr : int;
  m_last_user : int;
  m_root_sig : string option;
  m_next_lsn : int;
  m_backups : backup list;
  (* Network-session bookkeeping (PR 5): highest request seq executed
     per user, and the last reply payload per user — what makes a
     client retransmission across a daemon restart exactly-once. *)
  m_seqs : (int * int) list;  (* sorted by user *)
  m_replies : (int * (int * string)) list;  (* user -> (seq, payload) *)
}

(* When records reach the OS. [Per_op] flushes (and under [fsync],
   syncs) after every logged record — the pre-group-commit behaviour,
   byte for byte. [Per_round] stages everything and relies on the
   caller invoking {!flush} at round boundaries: one flush + one fsync
   per dirty stream per round, however many records the round logged.
   [Every_n n] flushes every stream once [n] records are staged. *)
type durability = Per_op | Per_round | Every_n of int

let durability_to_string = function
  | Per_op -> "per-op"
  | Per_round -> "per-round"
  | Every_n n -> Printf.sprintf "every:%d" n

let durability_of_string s =
  match s with
  | "per-op" -> Ok Per_op
  | "per-round" -> Ok Per_round
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.equal (String.sub s 0 i) "every" -> (
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some n when n >= 1 -> Ok (Every_n n)
          | _ -> Error (s ^ ": batch size must be a positive integer"))
      | _ ->
          Error
            (Printf.sprintf "%s: unknown durability (per-op | per-round | every:N)"
               s))

(* A [base] is the snapshot a stream's live log is relative to: its
   file chain, the highest LSN whose effects it folds in ([-1] for a
   fresh store), and the scalar bookkeeping as of that point. A shard
   stream's chain is one full snapshot followed by the node-level
   deltas later checkpoints appended to it, oldest first; the meta
   stream's chain is always a single file. The per-stream bases live
   in the generation's [bases.<g>] control file, which is what lets
   compaction advance one stream's base without rewriting anything
   else. *)
type base = {
  b_files : string list;  (* snapshot basenames, relative to the store dir *)
  b_asof : int;
  b_ctr : int;
  b_last_user : int;
  b_sig : string option;
}

(* State stashed when a segment rolls, so a later compaction can fold
   every sealed segment into a snapshot without replaying them: the
   shard's tree (or the meta stream's lists) exactly as of the roll
   point. Correct because every record after [se_asof] is still in
   live segments and gets replayed on top. *)
type seal = {
  se_tree : T.t option;  (* [Some] for shard streams, [None] for meta *)
  se_backups : backup list;
  se_seqs : (int * int) list;
  se_replies : (int * (int * string)) list;
  se_asof : int;
  se_ctr : int;
  se_last_user : int;
  se_sig : string option;
}

(* Sets and tables keyed by node digest. *)
module Digest_set = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* One rotated log: shard [i]'s op log, or the meta log. Live segments
   are [st_first_seg .. st_seg]; everything below [st_first_seg] has
   been folded into [st_base]. *)
type stream = {
  st_name : string;  (* "shard<i>" or "meta" *)
  st_shard : int option;
  mutable st_writer : Wal.writer;
  mutable st_seg : int;  (* active segment index *)
  mutable st_first_seg : int;  (* first live segment *)
  mutable st_base : base;
  mutable st_seal : seal option;
  (* Shard streams only: [st_tree] is the last tree the chain of
     [st_base] persisted, and [st_persisted] the digests of its nodes —
     all on disk in that chain — so a checkpoint can write just the
     nodes it lacks. An empty set means "not known in memory" (fresh
     process state after a recovery, resume or rollback) and forces the
     next checkpoint to start a new chain with a full snapshot. *)
  st_persisted : unit Digest_set.t;
  mutable st_tree : N.t;
  mutable st_full_bytes : int;  (* payload bytes of the chain's full snapshot *)
  mutable st_delta_bytes : int;  (* payload bytes of its deltas, summed *)
}

type t = {
  dir : string;
  map : Shard_map.t;
  fsync : bool;
  durability : durability;
  checkpoint_every : int;
  segment_bytes : int;
  compact_segments : int;  (* sealed segments that trigger auto-compaction *)
  mutable gen : int;
  mutable next_lsn : int;
  mutable streams : stream array;  (* shards + 1 entries; meta last *)
  (* Mirror of the bookkeeping the meta log describes, so a checkpoint
     can serialise it without asking the server. *)
  mutable ctr : int;
  mutable last_user : int;
  mutable root_sig : string option;
  mutable backups : backup list;
  mutable seqs : (int * int) list;
  mutable replies : (int * (int * string)) list;
  (* Origins declared by the network daemon for the ops it is about to
     inject this round; [log_op] attaches and consumes them, so the WAL
     record itself carries the (user, request seq) provenance. *)
  mutable origins : (int * int) list;
  (* Shards with ops logged since the last checkpoint — the ones whose
     snapshot an incremental checkpoint must rewrite. *)
  mutable dirty : bool array;
  (* The database as of the last logged op: what a segment roll seals
     for later compaction. *)
  mutable last_db : Shard_db.t;
  mutable staged_since_flush : int;
  (* Snapshot files the previous generation's bases still reference —
     compaction must not delete those out from under recover_stale. *)
  mutable prev_referenced : string list;
  mutable ops_since_checkpoint : int;
  mutable closed : bool;
}

(* ---- paths ---------------------------------------------------------- *)

let ( // ) = Filename.concat
let manifest_path dir = dir // "MANIFEST"
let manifest_bak_path dir = dir // "MANIFEST.bak"
let current_path dir = dir // "CURRENT"
let bases_path dir g = dir // Printf.sprintf "bases.%d" g
let seg_path dir name g s = dir // Printf.sprintf "%s.%d.%d.wal" name g s
let stream_name ~shards i = if i = shards then "meta" else Printf.sprintf "shard%d" i

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let write_current dir g =
  let tmp = current_path dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (string_of_int g);
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  Sys.rename tmp (current_path dir)

let read_current dir =
  let path = current_path dir in
  if not (Sys.file_exists path) then Error (path ^ ": missing")
  else begin
    let ic = open_in_bin path in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match int_of_string_opt (String.trim contents) with
    | Some g when g >= 0 -> Ok g
    | _ -> Error (path ^ ": unreadable generation number")
  end

(* ---- manifest ------------------------------------------------------- *)

(* The MANIFEST is written exactly once, at store creation, with a
   .bak twin. A torn MANIFEST (truncated mid-write by a filesystem
   that reordered the rename) is repaired from the twin — or, if both
   are damaged, recovery fails loudly: a store must never serve a
   half-initialized shard map. *)

let write_manifest dir ~payload =
  Snapshot.write (manifest_path dir) ~payload;
  Snapshot.write (manifest_bak_path dir) ~payload

let read_manifest dir =
  let try_read path =
    match Snapshot.read path with
    | Error _ as e -> e
    | Ok payload -> (
        match Shard_map.decode payload with
        | Some map -> Ok (payload, map)
        | None -> Error (path ^ ": malformed manifest"))
  in
  match try_read (manifest_path dir) with
  | Ok (_, map) -> Ok map
  | Error primary -> (
      match try_read (manifest_bak_path dir) with
      | Ok (payload, map) ->
          Snapshot.write (manifest_path dir) ~payload;
          Obs.incr c_manifest_repairs;
          Log.warn (fun f ->
              f "%s: repaired torn MANIFEST from backup (%s)" dir primary);
          Ok map
      | Error backup ->
          Error
            (Printf.sprintf
               "%s: manifest unrecoverable — refusing to serve a \
                half-initialized shard map (%s; backup: %s)"
               dir primary backup))

let manifest_exists dir =
  Sys.file_exists (manifest_path dir) || Sys.file_exists (manifest_bak_path dir)

(* Adversary hook: simulate a torn mid-write MANIFEST (and, for the
   unrepairable variant, a damaged backup too) before a restart. *)
let debug_tear_manifest ~dir ~wreck_backup =
  let tear path =
    if Sys.file_exists path then begin
      let len = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (max 1 (len / 2));
      Unix.close fd
    end
  in
  tear (manifest_path dir);
  if wreck_backup then tear (manifest_bak_path dir)

(* ---- codecs --------------------------------------------------------- *)

let encode_op w (op : Vo.op) =
  match op with
  | Vo.Get k ->
      W.u8 w 0;
      W.str w k
  | Vo.Set (k, v) ->
      W.u8 w 1;
      W.str w k;
      W.str w v
  | Vo.Set_many entries ->
      W.u8 w 2;
      W.list w
        (fun (k, v) ->
          W.str w k;
          W.str w v)
        entries
  | Vo.Remove k ->
      W.u8 w 3;
      W.str w k
  | Vo.Range (lo, hi) ->
      W.u8 w 4;
      W.str w lo;
      W.str w hi

let decode_op r : Vo.op =
  match R.u8 r with
  | 0 -> Vo.Get (R.str r)
  | 1 ->
      let k = R.str r in
      Vo.Set (k, R.str r)
  | 2 ->
      Vo.Set_many
        (R.list r (fun r ->
             let k = R.str r in
             (k, R.str r)))
  | 3 -> Vo.Remove (R.str r)
  | 4 ->
      let lo = R.str r in
      Vo.Range (lo, R.str r)
  | n -> failwith (Printf.sprintf "unknown op tag %d" n)

(* [last_user] can be -1 (no user yet); shift by one for the unsigned
   wire field. [origin] is the (user, request seq) provenance of a
   network-submitted operation — [None] for in-process runs. *)
let encode_op_record ~op ~ctr ~last_user ~origin =
  let w = W.create () in
  encode_op w op;
  W.u32 w ctr;
  W.u32 w (last_user + 1);
  (match origin with
  | None -> W.u8 w 0
  | Some (user, seq) ->
      W.u8 w 1;
      W.u16 w user;
      W.u32 w seq);
  W.contents w

let decode_op_record payload =
  Wire.decode payload (fun r ->
      let op = decode_op r in
      let ctr = R.u32 r in
      let last_user = R.u32 r - 1 in
      let origin =
        match R.u8 r with
        | 0 -> None
        | 1 ->
            let user = R.u16 r in
            Some (user, R.u32 r)
        | n -> failwith (Printf.sprintf "bad origin tag %d" n)
      in
      (op, ctr, last_user, origin))

let encode_backup w b =
  W.u16 w b.user;
  W.u32 w b.epoch;
  W.str w b.sigma;
  W.str w b.last;
  W.u32 w b.gctr;
  W.str w b.signature

let decode_backup r =
  let user = R.u16 r in
  let epoch = R.u32 r in
  let sigma = R.str r in
  let last = R.str r in
  let gctr = R.u32 r in
  let signature = R.str r in
  { user; epoch; sigma; last; gctr; signature }

let encode_sig_record s =
  let w = W.create () in
  W.u8 w 1;
  W.str w s;
  W.contents w

let encode_backup_record b =
  let w = W.create () in
  W.u8 w 2;
  encode_backup w b;
  W.contents w

let encode_reply_record ~user ~seq ~payload =
  let w = W.create () in
  W.u8 w 3;
  W.u16 w user;
  W.u32 w seq;
  W.str w payload;
  W.contents w

let decode_meta_record payload =
  Wire.decode payload (fun r ->
      match R.u8 r with
      | 1 -> `Sig (R.str r)
      | 2 -> `Backup (decode_backup r)
      | 3 ->
          let user = R.u16 r in
          let seq = R.u32 r in
          `Reply (user, seq, R.str r)
      | n -> failwith (Printf.sprintf "unknown meta tag %d" n))

(* Every segment file opens with a header record at LSN 0 naming the
   stream, generation and segment index it belongs to — so replay can
   never stitch a mis-rotated file into the wrong log. *)
let seg_magic = "TCVSSEG1"

let encode_seg_header ~name ~gen ~seg =
  let w = W.create () in
  W.str w seg_magic;
  W.str w name;
  W.u32 w gen;
  W.u32 w seg;
  W.contents w

let seg_header_matches ~name ~gen ~seg payload =
  match
    Wire.decode payload (fun r ->
        let magic = R.str r in
        let n = R.str r in
        let g = R.u32 r in
        let s = R.u32 r in
        (magic, n, g, s))
  with
  | Some (magic, n, g, s) ->
      String.equal magic seg_magic && String.equal n name && g = gen && s = seg
  | None -> false

(* The [bases.<g>] control file: one entry per stream (shards in
   order, then meta) recording its base snapshot. Written atomically
   via [Snapshot.write], so compaction publishes a new base with a
   single rename. *)

let encode_bases ~gen entries =
  let w = W.create () in
  W.u32 w gen;
  W.list w
    (fun (b, first_seg) ->
      W.list w (W.str w) b.b_files;
      W.u32 w first_seg;
      W.u64 w (b.b_asof + 1);
      W.u32 w b.b_ctr;
      W.u32 w (b.b_last_user + 1);
      match b.b_sig with
      | None -> W.u8 w 0
      | Some s ->
          W.u8 w 1;
          W.str w s)
    (Array.to_list entries);
  W.contents w

let decode_bases payload =
  match
    Wire.decode payload (fun r ->
        let gen = R.u32 r in
        let entries =
          R.list r (fun r ->
              let files = R.list r R.str in
              if files = [] then failwith "empty snapshot chain";
              let first_seg = R.u32 r in
              let asof = R.u64 r - 1 in
              let ctr = R.u32 r in
              let last_user = R.u32 r - 1 in
              let sg =
                match R.u8 r with
                | 0 -> None
                | 1 -> Some (R.str r)
                | n -> failwith (Printf.sprintf "bad sig tag %d" n)
              in
              ( { b_files = files; b_asof = asof; b_ctr = ctr;
                  b_last_user = last_user; b_sig = sg },
                first_seg ))
        in
        (gen, Array.of_list entries))
  with
  | Some v -> Ok v
  | None -> Error "malformed bases record"

let read_bases dir g ~count =
  let path = bases_path dir g in
  let* payload = Snapshot.read path in
  let* bgen, entries =
    Result.map_error (fun e -> path ^ ": " ^ e) (decode_bases payload)
  in
  if bgen <> g then
    Error (Printf.sprintf "%s: generation mismatch (found %d)" path bgen)
  else if Array.length entries <> count then
    Error
      (Printf.sprintf "%s: expected %d stream entries, found %d" path count
         (Array.length entries))
  else Ok entries

(* Snapshot basenames referenced by [bases.<g>] — every file of every
   stream's chain — or [] when the file is absent/unreadable: used to
   decide what garbage collection and compaction may delete. *)
let bases_files dir g =
  if g < 0 then []
  else
    match Snapshot.read (bases_path dir g) with
    | Error _ -> []
    | Ok payload -> (
        match decode_bases payload with
        | Ok (_, entries) -> List.concat_map (fun (b, _) -> b.b_files) (Array.to_list entries)
        | Error _ -> [])

let sort_backups backups =
  List.sort (fun a b -> compare (a.epoch, a.user) (b.epoch, b.user)) backups

let replace_backup backups b =
  b :: List.filter (fun x -> not (x.user = b.user && x.epoch = b.epoch)) backups

(* Per-user maps kept as sorted assoc lists: user counts are small, and
   lists keep snapshot encoding deterministic without Hashtbl order. *)
let set_assoc user v l =
  List.sort (fun (a, _) (b, _) -> Int.compare a b)
    ((user, v) :: List.remove_assoc user l)

let bump_seq seqs (user, seq) =
  match List.assoc_opt user seqs with
  | Some prev when prev >= seq -> seqs
  | _ -> set_assoc user seq seqs

(* ---- snapshots ------------------------------------------------------ *)

(* Shard snapshots persist the exact node structure, not just the
   bindings: a B⁺-tree's shape depends on its insertion history and
   the digest commits to the shape, so bulk-loading the same bindings
   would generally produce a different root. The loader rebuilds the
   stored structure through the smart constructors — recomputing every
   digest from the raw bytes — and the stored root digest pins the
   result.

   A snapshot file is either a full snapshot (tags 0 and 1 only) or a
   node-level delta: the tree is persistent, so a checkpoint walks it
   from the root and writes a subtree whose digest an earlier file of
   the chain already holds as tag 2 plus that 32-byte digest. [known]
   answers "is this digest already on disk"; [fresh] collects the
   digests this file writes out, [refs] those it references. With
   nothing known the walk writes today's full-snapshot bytes exactly. *)
let rec encode_node w ~known ~fresh ~refs (n : N.t) =
  let d = N.digest n in
  if known d then begin
    refs := d :: !refs;
    W.u8 w 2;
    W.raw w d
  end
  else begin
    fresh := d :: !fresh;
    match n with
    | N.Leaf { entries; _ } ->
        W.u8 w 0;
        W.list w
          (fun (e : N.entry) ->
            W.str w e.N.key;
            W.str w e.N.value)
          (Array.to_list entries)
    | N.Node { keys; children; _ } ->
        W.u8 w 1;
        W.list w (W.str w) (Array.to_list keys);
        W.list w (encode_node w ~known ~fresh ~refs) (Array.to_list children)
    | N.Stub _ ->
        (* Stored trees are the server's full trees; stubs live only in
           client-side verification objects. *)
        invalid_arg "shard snapshot: stub in stored tree"
  end

exception Unresolved_node of string

(* Structural violations raise [Invalid_argument], which [Wire.decode]
   maps to [None] — same failure surface as a short or garbled read. A
   digest reference [resolve] cannot satisfy raises [Unresolved_node].
   Every node rebuilt here is pushed onto [rebuilt]. *)
let rec decode_node r ~resolve ~rebuilt =
  let built n =
    rebuilt := n :: !rebuilt;
    n
  in
  match R.u8 r with
  | 0 ->
      let entries =
        Array.of_list
          (R.list r (fun r ->
               let key = R.str r in
               let value = R.str r in
               N.entry ~key ~value))
      in
      for i = 1 to Array.length entries - 1 do
        if String.compare entries.(i - 1).N.key entries.(i).N.key >= 0 then
          invalid_arg "shard snapshot: leaf entries not sorted"
      done;
      built (N.make_leaf entries)
  | 1 ->
      let keys = Array.of_list (R.list r (fun r -> R.str r)) in
      let children = Array.of_list (R.list r (decode_node ~resolve ~rebuilt)) in
      if Array.length children < 1 || Array.length keys <> Array.length children - 1
      then invalid_arg "shard snapshot: malformed internal node";
      built (N.make_node keys children)
  | 2 -> (
      let d = R.raw r 32 in
      match resolve d with Some n -> n | None -> raise (Unresolved_node d))
  | _ -> invalid_arg "shard snapshot: unknown node tag"

let shard_payload i tree ~known ~fresh ~refs =
  let w = W.create () in
  W.u16 w i;
  W.str w (T.root_digest tree);
  encode_node w ~known ~fresh ~refs (T.root tree);
  W.contents w

(* Write one chain file for shard stream [st] holding [tree], skipping
   every node of the stream's last persisted tree, then make [tree]
   the last persisted tree: add the nodes just written, and drop the
   old tree's nodes [tree] no longer holds — walking the old tree from
   its root, a node the new file references keeps its whole subtree.
   The set so stays at one tree's size however long the chain grows.
   Returns the payload size. *)
let persist_tree st path i tree =
  let fresh = ref [] and refs = ref [] in
  let payload =
    shard_payload i tree ~known:(Digest_set.mem st.st_persisted) ~fresh ~refs
  in
  Snapshot.write path ~payload;
  let kept = Digest_set.create 64 in
  List.iter (fun d -> Digest_set.replace kept d ()) !refs;
  let rec retire (n : N.t) =
    let d = N.digest n in
    if not (Digest_set.mem kept d) then begin
      Digest_set.remove st.st_persisted d;
      match n with
      | N.Node { children; _ } -> Array.iter retire children
      | N.Leaf _ | N.Stub _ -> ()
    end
  in
  retire st.st_tree;
  List.iter (fun d -> Digest_set.replace st.st_persisted d ()) !fresh;
  st.st_tree <- T.root tree;
  String.length payload

(* Rebuild shard [i] from its chain, oldest file first. A digest
   reference resolves only against nodes rebuilt from earlier files —
   whose checksum and stored root digest already verified — so the
   full snapshot must stand alone and a delta can never point forward
   or into itself. Every file's root must match the digest it stores. *)
let load_shard_chain dir ~branching i files =
  let nodes = Digest_set.create 1024 in
  let load_file path =
    let* payload = Snapshot.read path in
    let rebuilt = ref [] in
    match
      Wire.decode payload (fun r ->
          let idx = R.u16 r in
          let root = R.str r in
          let node = decode_node r ~resolve:(Digest_set.find_opt nodes) ~rebuilt in
          (idx, root, node))
    with
    | exception Unresolved_node d ->
        Error
          (Printf.sprintf "%s: unresolved node reference %s" path
             (String.sub (Crypto.Hex.encode d) 0 16))
    | None -> Error (path ^ ": malformed shard snapshot")
    | Some (idx, _, _) when idx <> i ->
        Error (Printf.sprintf "%s: shard index mismatch (found %d)" path idx)
    | Some (_, root, node) ->
        if String.equal (N.digest node) root then begin
          List.iter (fun n -> Digest_set.replace nodes (N.digest n) n) !rebuilt;
          Ok node
        end
        else Error (path ^ ": recovered root digest mismatch")
  in
  let rec go files last =
    match (files, last) with
    | [], Some node -> Ok (T.of_root ~branching node)
    | [], None -> Error (Printf.sprintf "shard%d: empty snapshot chain" i)
    | f :: rest, _ ->
        let* node = load_file (dir // f) in
        go rest (Some node)
  in
  go files None

let write_meta_snapshot_file path m =
  let w = W.create () in
  W.u32 w m.m_ctr;
  W.u32 w (m.m_last_user + 1);
  (match m.m_root_sig with
  | None -> W.u8 w 0
  | Some s ->
      W.u8 w 1;
      W.str w s);
  W.u64 w m.m_next_lsn;
  W.list w (fun b -> encode_backup w b) (sort_backups m.m_backups);
  W.list w
    (fun (user, seq) ->
      W.u16 w user;
      W.u32 w seq)
    m.m_seqs;
  W.list w
    (fun (user, (seq, payload)) ->
      W.u16 w user;
      W.u32 w seq;
      W.str w payload)
    m.m_replies;
  Snapshot.write path ~payload:(W.contents w)

let load_meta_snapshot_file path =
  let* payload = Snapshot.read path in
  match
    Wire.decode payload (fun r ->
        let ctr = R.u32 r in
        let last_user = R.u32 r - 1 in
        let root_sig =
          match R.u8 r with
          | 0 -> None
          | 1 -> Some (R.str r)
          | n -> failwith (Printf.sprintf "bad sig tag %d" n)
        in
        let next_lsn = R.u64 r in
        let backups = R.list r decode_backup in
        let seqs =
          R.list r (fun r ->
              let user = R.u16 r in
              (user, R.u32 r))
        in
        let replies =
          R.list r (fun r ->
              let user = R.u16 r in
              let seq = R.u32 r in
              (user, (seq, R.str r)))
        in
        {
          m_ctr = ctr;
          m_last_user = last_user;
          m_root_sig = root_sig;
          m_next_lsn = next_lsn;
          m_backups = backups;
          m_seqs = seqs;
          m_replies = replies;
        })
  with
  | None -> Error (path ^ ": malformed meta snapshot")
  | Some m -> Ok m

(* ---- segment lifecycle ---------------------------------------------- *)

(* Open a segment for append, writing (and flushing) the header record
   if the file is empty — which also repairs the corner where a crash
   landed between file creation and the header flush. *)
let open_segment dir ~fsync name gen seg =
  let w = Wal.open_writer (seg_path dir name gen seg) in
  if Wal.size w = 0 then begin
    Wal.stage ~count:false w ~lsn:0 ~payload:(encode_seg_header ~name ~gen ~seg);
    ignore (Wal.flush ~fsync w)
  end;
  w

(* Walk the contiguous live segments of one stream from [first_seg],
   validating headers and decoding records. A torn tail is legal only
   on the last (active) segment: sealed segments were flushed whole, so
   damage there is silent corruption and fails hard. Returns events
   (unordered), the active segment index, and the data-record count. *)
let read_stream_events dir ~name ~gen ~first_seg ~decode =
  let rec go s acc n =
    let path = seg_path dir name gen s in
    if not (Sys.file_exists path) then Ok (acc, max first_seg (s - 1), n)
    else
      let* { Wal.records; truncated } = Wal.read path in
      let sealed = Sys.file_exists (seg_path dir name gen (s + 1)) in
      if truncated && sealed then
        Error (path ^ ": torn tail in a sealed segment (mid-log corruption)")
      else
        let* records =
          match records with
          | [] -> Ok []  (* crash between segment creation and header flush *)
          | (_, header) :: rest ->
              if seg_header_matches ~name ~gen ~seg:s header then Ok rest
              else Error (path ^ ": bad segment header")
        in
        let rec decode_all records acc n =
          match records with
          | [] -> Ok (acc, n)
          | (lsn, payload) :: rest -> (
              match decode payload with
              | None ->
                  Error (Printf.sprintf "%s: malformed record at lsn %d" path lsn)
              | Some ev -> decode_all rest ((lsn, ev) :: acc) (n + 1))
        in
        let* acc, n = decode_all records acc n in
        go (s + 1) acc n
  in
  go first_seg [] 0

(* ---- generation replay ---------------------------------------------- *)

type loaded = {
  l_db : Shard_db.t;
  l_meta : meta;
  l_dirty : bool array;
  l_entries : (base * int) array;  (* per stream: base, first live segment *)
  l_active : int array;  (* per stream: active segment index *)
}

(* Scalar bookkeeping comes from the newest base; records a compacted
   base already folded in must not rewind it, so replay fences ctr /
   last_user / root_sig behind the max base asof. Tree and keyed-map
   effects apply unconditionally: folded segments are gone (excluded
   by first_seg), and keyed replacement is idempotent in LSN order. *)
let newest_base entries =
  Array.fold_left
    (fun (a, c, lu, sg) (b, _) ->
      if b.b_asof > a then (b.b_asof, b.b_ctr, b.b_last_user, b.b_sig)
      else (a, c, lu, sg))
    (-1, 0, -1, None) entries

(* Every stream's base as [bases.<g>] records it: the shard trees
   rebuilt from their chains, and the meta snapshot. *)
let load_bases dir ~map g =
  let shards = Shard_map.shards map and branching = Shard_map.branching map in
  let* entries = read_bases dir g ~count:(shards + 1) in
  let rec load_trees i acc =
    if i = shards then Ok (Array.of_list (List.rev acc))
    else
      let b, _ = entries.(i) in
      let* tree = load_shard_chain dir ~branching i b.b_files in
      load_trees (i + 1) (tree :: acc)
  in
  let* trees = load_trees 0 [] in
  let* msnap =
    match entries.(shards) with
    | { b_files = [ f ]; _ }, _ -> load_meta_snapshot_file (dir // f)
    | _ -> Error (bases_path dir g ^ ": meta stream must have a single-file base")
  in
  Ok (entries, trees, msnap)

let load_generation dir ~map g =
  let shards = Shard_map.shards map in
  let n_streams = shards + 1 in
  let* entries, trees, msnap = load_bases dir ~map g in
  let guard, g_ctr, g_last, g_sig = newest_base entries in
  let dirty = Array.make shards false in
  let active = Array.make n_streams 0 in
  let decode_event i payload =
    if i < shards then
      match decode_op_record payload with
      | None -> None
      | Some r -> Some (`Op r)
    else decode_meta_record payload
  in
  let rec gather i acc =
    if i = n_streams then Ok acc
    else
      let name = stream_name ~shards i in
      let first = snd entries.(i) in
      let* evs, act, n =
        read_stream_events dir ~name ~gen:g ~first_seg:first
          ~decode:(decode_event i)
      in
      active.(i) <- act;
      if i < shards && n > 0 then dirty.(i) <- true;
      gather (i + 1) (List.rev_append evs acc)
  in
  let* events = gather 0 [] in
  let events = List.sort (fun (a, _) (b, _) -> Int.compare a b) events in
  let db0 = Shard_db.of_trees map trees in
  let m0 =
    {
      m_ctr = g_ctr;
      m_last_user = g_last;
      m_root_sig = g_sig;
      m_next_lsn = guard + 1;
      m_backups = msnap.m_backups;
      m_seqs = msnap.m_seqs;
      m_replies = msnap.m_replies;
    }
  in
  let db, m =
    List.fold_left
      (fun (db, m) (lsn, ev) ->
        let m = { m with m_next_lsn = max m.m_next_lsn (lsn + 1) } in
        match ev with
        | `Op (op, ctr', last_user', origin) ->
            let db, _answer = Shard_db.apply db op in
            let seqs =
              match origin with None -> m.m_seqs | Some o -> bump_seq m.m_seqs o
            in
            if lsn > guard then
              ( db,
                { m with m_ctr = ctr'; m_last_user = last_user';
                  m_root_sig = None; m_seqs = seqs } )
            else (db, { m with m_seqs = seqs })
        | `Sig s -> if lsn > guard then (db, { m with m_root_sig = Some s }) else (db, m)
        | `Backup b -> (db, { m with m_backups = replace_backup m.m_backups b })
        | `Reply (user, seq, payload) ->
            (db, { m with m_replies = set_assoc user (seq, payload) m.m_replies }))
      (db0, m0) events
  in
  Ok { l_db = db; l_meta = m; l_dirty = dirty; l_entries = entries; l_active = active }

(* ---- stream construction -------------------------------------------- *)

let make_streams dir ~shards ~gen ~fsync entries active =
  Array.init (shards + 1) (fun i ->
      let base, first = entries.(i) in
      let name = stream_name ~shards i in
      {
        st_name = name;
        st_shard = (if i < shards then Some i else None);
        st_writer = open_segment dir ~fsync name gen active.(i);
        st_seg = active.(i);
        st_first_seg = first;
        st_base = base;
        st_seal = None;
        st_persisted = Digest_set.create 0;
        st_tree = N.empty_leaf;
        st_full_bytes = 0;
        st_delta_bytes = 0;
      })

let base_entries t = Array.map (fun st -> (st.st_base, st.st_first_seg)) t.streams

let write_bases_gen dir ~gen entries =
  Snapshot.write (bases_path dir gen) ~payload:(encode_bases ~gen entries)

let write_bases t = write_bases_gen t.dir ~gen:t.gen (base_entries t)

(* ---- garbage collection --------------------------------------------- *)

type gc_class = Gc_bases of int | Gc_snap of int | Gc_wal of int

let classify_file f =
  match String.split_on_char '.' f with
  | [ "bases"; g ] -> Option.map (fun g -> Gc_bases g) (int_of_string_opt g)
  | _ :: g :: rest -> (
      match (int_of_string_opt g, rest) with
      | Some g, [ "snap" ] | Some g, [ _; "snap" ] -> Some (Gc_snap g)
      | Some g, [ _; "wal" ] -> Some (Gc_wal g)
      | _ -> None)
  | _ -> None

(* Delete everything the current generation (in memory) and the
   previous generation's bases file (on disk) no longer reference:
   superseded bases files, unreferenced snapshots (including orphans a
   crashed checkpoint or compaction left behind), segment files of
   dead generations, and half-written .tmp files. Runs at checkpoint
   and stale-recovery time, when both reference sets are known. *)
let gc t ~prev =
  let prev_refs = bases_files t.dir prev in
  t.prev_referenced <- prev_refs;
  let referenced = Hashtbl.create 64 in
  let keep f = Hashtbl.replace referenced f () in
  List.iter keep prev_refs;
  Array.iter (fun st -> List.iter keep st.st_base.b_files) t.streams;
  let files = Sys.readdir t.dir in
  Array.sort String.compare files;
  Array.iter
    (fun f ->
      match f with
      | "MANIFEST" | "MANIFEST.bak" | "CURRENT" -> ()
      | _ ->
          if Filename.check_suffix f ".tmp" then remove_if_exists (t.dir // f)
          else (
            match classify_file f with
            | Some (Gc_bases g) | Some (Gc_wal g) ->
                if g <> t.gen && g <> prev then remove_if_exists (t.dir // f)
            | Some (Gc_snap _) ->
                if not (Hashtbl.mem referenced f) then remove_if_exists (t.dir // f)
            | None -> ()))
    files

(* ---- accessors ------------------------------------------------------ *)

let db t = t.last_db
let shard_map t = t.map
let generation t = t.gen
let dir t = t.dir
let durability t = t.durability

let fresh_lsn t =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  lsn

(* ---- group commit: flush, roll, compact ----------------------------- *)

(* Seal the active segment and roll to the next one. Called only with
   an empty staging buffer (right after a flush). The seal stashes the
   state as of the roll point so compaction can fold every sealed
   segment without replaying it. *)
let roll_segment t st =
  Wal.close_writer st.st_writer;
  let se_tree =
    match st.st_shard with
    | Some i -> Some (Shard_db.trees t.last_db).(i)
    | None -> None
  in
  st.st_seal <-
    Some
      {
        se_tree;
        se_backups = t.backups;
        se_seqs = t.seqs;
        se_replies = t.replies;
        se_asof = t.next_lsn - 1;
        se_ctr = t.ctr;
        se_last_user = t.last_user;
        se_sig = t.root_sig;
      };
  st.st_seg <- st.st_seg + 1;
  st.st_writer <- open_segment t.dir ~fsync:t.fsync st.st_name t.gen st.st_seg;
  Obs.incr c_rolls;
  Log.debug (fun f -> f "%s: %s rolled to segment %d" t.dir st.st_name st.st_seg)

(* Flush one stream's staged batch — one channel flush, at most one
   fsync, however many records the batch holds — then roll if the
   segment outgrew its budget. *)
let flush_stream t st =
  let records = Wal.staged_records st.st_writer in
  if records > 0 then begin
    Obs.observe h_batch_records records;
    Obs.observe h_batch_bytes (Wal.staged_bytes st.st_writer);
    ignore (Wal.flush ~fsync:t.fsync st.st_writer);
    if Wal.size st.st_writer >= t.segment_bytes then roll_segment t st
  end

let flush_streams t =
  Array.iter (fun st -> flush_stream t st) t.streams;
  t.staged_since_flush <- 0

(* Start a new chain for shard stream [st]: a full snapshot of [tree]
   named [name], whose nodes become the whole persisted-digest set.
   Returns the chain. *)
let write_full_snapshot t st i tree name =
  Digest_set.reset st.st_persisted;
  st.st_tree <- N.empty_leaf;
  st.st_full_bytes <- persist_tree st (t.dir // name) i tree;
  st.st_delta_bytes <- 0;
  [ name ]

(* Fold one stream's sealed segments into a compaction snapshot: write
   the snapshot from the seal, publish it as the stream's new base
   with one atomic [bases.<g>] rewrite, then delete the folded
   segments. A crash before the publish leaves an orphan snapshot
   (ignored, gc'd later); a crash after it leaves stale segments below
   [first_seg] (ignored, gc'd later) — recovery is correct either way. *)
let write_compaction_snapshot t st se =
  let snap = Printf.sprintf "%s.%d.c%d.snap" st.st_name t.gen st.st_seg in
  (match st.st_shard with
  | Some i ->
      let tree =
        match se.se_tree with
        | Some tree -> tree
        | None -> invalid_arg "compaction seal without tree"
      in
      write_full_snapshot t st i tree snap
  | None ->
      write_meta_snapshot_file (t.dir // snap)
        {
          m_ctr = se.se_ctr;
          m_last_user = se.se_last_user;
          m_root_sig = se.se_sig;
          m_next_lsn = se.se_asof + 1;
          m_backups = se.se_backups;
          m_seqs = se.se_seqs;
          m_replies = se.se_replies;
        };
      [ snap ])

let compact_stream t st =
  match st.st_seal with
  | None -> ()
  | Some se ->
      let chain = write_compaction_snapshot t st se in
      let old_base = st.st_base and old_first = st.st_first_seg in
      st.st_base <-
        {
          b_files = chain;
          b_asof = se.se_asof;
          b_ctr = se.se_ctr;
          b_last_user = se.se_last_user;
          b_sig = se.se_sig;
        };
      st.st_first_seg <- st.st_seg;
      st.st_seal <- None;
      write_bases t;
      for s = old_first to st.st_seg - 1 do
        remove_if_exists (seg_path t.dir st.st_name t.gen s)
      done;
      List.iter
        (fun f ->
          if not (List.exists (String.equal f) t.prev_referenced) then
            remove_if_exists (t.dir // f))
        old_base.b_files;
      Obs.incr c_compactions;
      Log.debug (fun f ->
          f "%s: %s compacted segments %d..%d into %s" t.dir st.st_name old_first
            (st.st_seg - 1) (String.concat "," chain))

let auto_compact t =
  Array.iter
    (fun st ->
      if st.st_seg - st.st_first_seg >= t.compact_segments then
        compact_stream t st)
    t.streams

(* The group-commit point: flush every stream's staged batch (the
   network daemon and the simulated server call this once per round),
   then fold any stream whose sealed-segment count crossed the
   compaction threshold. *)
let flush t =
  let t0 = now_us () in
  flush_streams t;
  auto_compact t;
  Obs.observe h_flush_us (now_us () - t0)

let compact t =
  flush_streams t;
  Array.iter (fun st -> compact_stream t st) t.streams

(* ---- checkpoint ----------------------------------------------------- *)

(* Persist shard stream [st]'s [tree] for a checkpoint and return its
   new chain. Usually a delta appended to the current chain, holding
   only the nodes the window changed. A new chain starts with a full
   snapshot when the persisted set is unknown, or once the deltas have
   grown to the full snapshot's size: that bounds the bytes written to
   twice the deltas' and the bytes recovery reads to about twice a
   full snapshot. *)
let snapshot_shard t st i tree name =
  if Digest_set.length st.st_persisted = 0 || st.st_delta_bytes >= st.st_full_bytes
  then write_full_snapshot t st i tree name
  else begin
    st.st_delta_bytes <- st.st_delta_bytes + persist_tree st (t.dir // name) i tree;
    st.st_base.b_files @ [ name ]
  end

let checkpoint t ~db =
  let t0 = now_us () in
  let shards = Shard_map.shards t.map in
  (* Staged records must be on disk before the generation flips. *)
  flush_streams t;
  t.last_db <- db;
  let g' = t.gen + 1 in
  let asof = t.next_lsn - 1 in
  let trees = Shard_db.trees db in
  (* Incremental: only shards dirtied since the last checkpoint get a
     fresh chain file; a clean shard keeps its current base, whose
     files may come from older generations (the bases file carries the
     references across). *)
  for i = 0 to shards - 1 do
    if t.dirty.(i) then begin
      let st = t.streams.(i) in
      let name = Printf.sprintf "shard%d.%d.snap" i g' in
      let chain = snapshot_shard t st i trees.(i) name in
      st.st_base <-
        { b_files = chain; b_asof = asof; b_ctr = t.ctr; b_last_user = t.last_user;
          b_sig = t.root_sig }
    end
  done;
  let meta_name = Printf.sprintf "meta.%d.snap" g' in
  write_meta_snapshot_file (t.dir // meta_name)
    {
      m_ctr = t.ctr;
      m_last_user = t.last_user;
      m_root_sig = t.root_sig;
      m_next_lsn = t.next_lsn;
      m_backups = t.backups;
      m_seqs = t.seqs;
      m_replies = t.replies;
    };
  t.streams.(shards).st_base <-
    { b_files = [ meta_name ]; b_asof = asof; b_ctr = t.ctr; b_last_user = t.last_user;
      b_sig = t.root_sig };
  Array.iter
    (fun st ->
      st.st_first_seg <- 0;
      st.st_seal <- None)
    t.streams;
  write_bases_gen t.dir ~gen:g' (base_entries t);
  write_current t.dir g';
  Array.iter (fun st -> Wal.close_writer st.st_writer) t.streams;
  let prev = t.gen in
  t.gen <- g';
  Array.iter
    (fun st ->
      st.st_seg <- 0;
      st.st_writer <- open_segment t.dir ~fsync:t.fsync st.st_name g' 0)
    t.streams;
  gc t ~prev;
  Array.fill t.dirty 0 shards false;
  t.ops_since_checkpoint <- 0;
  Obs.incr c_checkpoints;
  Obs.observe h_checkpoint_us (now_us () - t0);
  Log.debug (fun f -> f "%s: checkpointed generation %d" t.dir g')

(* ---- logging -------------------------------------------------------- *)

let sub_records map (op : Vo.op) =
  match op with
  | Vo.Get k | Vo.Set (k, _) | Vo.Remove k -> [ (Shard_map.route map k, op) ]
  | Vo.Range (lo, _) ->
      (* Reads are logged for counter bookkeeping only; one record, on
         the low bound's shard, is enough. *)
      [ (Shard_map.route map lo, op) ]
  | Vo.Set_many [] ->
      (* Touches no shard, but the executed op still advanced the
         counter: log one empty record so recovery replays the ctr
         bump. *)
      [ (0, op) ]
  | Vo.Set_many entries ->
      let touched =
        List.sort_uniq Int.compare
          (List.map (fun (k, _) -> Shard_map.route map k) entries)
      in
      List.map
        (fun i ->
          ( i,
            Vo.Set_many
              (List.filter (fun (k, _) -> Shard_map.route map k = i) entries) ))
        touched

(* Stage one record on stream [idx], then apply the durability policy:
   per-op flushes that stream immediately (the pre-group-commit
   behaviour), every:N flushes all streams once N records are staged,
   per-round leaves everything for the round-boundary {!flush}. *)
let stage_record t idx ~payload =
  let st = t.streams.(idx) in
  Wal.stage st.st_writer ~lsn:(fresh_lsn t) ~payload;
  t.staged_since_flush <- t.staged_since_flush + 1;
  match t.durability with
  | Per_op ->
      flush_stream t st;
      t.staged_since_flush <- 0
  | Per_round -> ()
  | Every_n n -> if t.staged_since_flush >= n then flush_streams t

let meta_index t = Shard_map.shards t.map

let log_op t ~db ~op ~ctr ~last_user =
  t.ctr <- ctr;
  t.last_user <- last_user;
  t.root_sig <- None;
  t.last_db <- db;
  (* A declared origin is consumed by the operation the daemon injected
     for that user; every fan-out sub-record repeats it (replay-time
     [bump_seq] is idempotent). *)
  let origin =
    match List.assoc_opt last_user t.origins with
    | None -> None
    | Some seq ->
        t.origins <- List.remove_assoc last_user t.origins;
        t.seqs <- bump_seq t.seqs (last_user, seq);
        Some (last_user, seq)
  in
  List.iter
    (fun (i, sub) ->
      t.dirty.(i) <- true;
      stage_record t i ~payload:(encode_op_record ~op:sub ~ctr ~last_user ~origin))
    (sub_records t.map op);
  Obs.incr c_ops_logged;
  t.ops_since_checkpoint <- t.ops_since_checkpoint + 1;
  if t.ops_since_checkpoint >= t.checkpoint_every then checkpoint t ~db

let log_root_sig t s =
  t.root_sig <- Some s;
  stage_record t (meta_index t) ~payload:(encode_sig_record s)

let log_backup t b =
  t.backups <- replace_backup t.backups b;
  stage_record t (meta_index t) ~payload:(encode_backup_record b)

let declare_origin t ~user ~seq = t.origins <- set_assoc user seq t.origins

let log_reply t ~user ~seq ~payload =
  t.replies <- set_assoc user (seq, payload) t.replies;
  stage_record t (meta_index t) ~payload:(encode_reply_record ~user ~seq ~payload)

let last_seqs t = t.seqs
let cached_reply t ~user =
  match List.assoc_opt user t.replies with
  | None -> None
  | Some (seq, payload) -> Some (seq, payload)

(* ---- recovery ------------------------------------------------------- *)

let recovered_of db m =
  {
    db;
    ctr = m.m_ctr;
    last_user = m.m_last_user;
    root_sig = m.m_root_sig;
    backups = sort_backups m.m_backups;
    seqs = m.m_seqs;
    replies = List.map (fun (user, (seq, payload)) -> (user, seq, payload)) m.m_replies;
  }

let adopt_meta t m =
  t.ctr <- m.m_ctr;
  t.last_user <- m.m_last_user;
  t.root_sig <- m.m_root_sig;
  t.backups <- m.m_backups;
  t.seqs <- m.m_seqs;
  t.replies <- m.m_replies;
  t.origins <- [];
  t.next_lsn <- m.m_next_lsn

(* A crash loses whatever was staged and not yet flushed: discard the
   buffers before closing, so the simulated restart replays exactly
   what a real process death would have left on disk. *)
let drop_staged_and_close t =
  Array.iter
    (fun st ->
      Wal.discard st.st_writer;
      Wal.close_writer st.st_writer)
    t.streams;
  t.staged_since_flush <- 0

let reopen_writers t =
  Array.iter
    (fun st ->
      st.st_writer <- open_segment t.dir ~fsync:t.fsync st.st_name t.gen st.st_seg)
    t.streams

let recover t =
  let t0 = now_us () in
  drop_staged_and_close t;
  match load_generation t.dir ~map:t.map t.gen with
  | Error _ as e ->
      reopen_writers t;
      e
  | Ok l ->
      adopt_meta t l.l_meta;
      t.last_db <- l.l_db;
      t.dirty <- l.l_dirty;
      Array.iteri
        (fun i st ->
          let base, first = l.l_entries.(i) in
          st.st_base <- base;
          st.st_first_seg <- first;
          st.st_seg <- l.l_active.(i);
          st.st_seal <- None;
          Digest_set.reset st.st_persisted;
          st.st_writer <-
            open_segment t.dir ~fsync:t.fsync st.st_name t.gen l.l_active.(i))
        t.streams;
      Obs.incr c_recoveries;
      Obs.observe h_recover_us (now_us () - t0);
      Log.info (fun f ->
          f "%s: recovered generation %d (ctr %d)" t.dir t.gen l.l_meta.m_ctr);
      Ok (recovered_of l.l_db l.l_meta)

let recover_stale t =
  let shards = Shard_map.shards t.map in
  drop_staged_and_close t;
  let stale =
    if t.gen > 0 && Sys.file_exists (bases_path t.dir (t.gen - 1)) then t.gen - 1
    else t.gen
  in
  match load_bases t.dir ~map:t.map stale with
  | Error _ as e ->
      reopen_writers t;
      e
  | Ok (entries, trees, msnap) ->
      (* Adversarially present the stale bases as the whole history:
         delete every live segment after them and flip CURRENT back. *)
      Array.iteri
        (fun i (_, first) ->
          let name = stream_name ~shards i in
          let rec wipe s =
            let p = seg_path t.dir name stale s in
            if Sys.file_exists p then begin
              Sys.remove p;
              wipe (s + 1)
            end
          in
          wipe first)
        entries;
      let guard, g_ctr, g_last, g_sig = newest_base entries in
      let m =
        {
          m_ctr = g_ctr;
          m_last_user = g_last;
          m_root_sig = g_sig;
          m_next_lsn = guard + 1;
          m_backups = msnap.m_backups;
          m_seqs = msnap.m_seqs;
          m_replies = msnap.m_replies;
        }
      in
      write_current t.dir stale;
      t.gen <- stale;
      t.streams <-
        make_streams t.dir ~shards ~gen:stale ~fsync:t.fsync entries
          (Array.map snd entries);
      let db = Shard_db.of_trees t.map trees in
      adopt_meta t m;
      t.last_db <- db;
      t.dirty <- Array.make shards false;
      t.ops_since_checkpoint <- 0;
      gc t ~prev:(stale - 1);
      Obs.incr c_stale_recoveries;
      Log.info (fun f ->
          f "%s: rolled back to stale generation %d (ctr %d)" t.dir stale m.m_ctr);
      Ok (recovered_of db m)

(* ---- open ----------------------------------------------------------- *)

let fresh_meta ~next_lsn =
  {
    m_ctr = 0;
    m_last_user = -1;
    m_root_sig = None;
    m_next_lsn = next_lsn;
    m_backups = [];
    m_seqs = [];
    m_replies = [];
  }

(* Write generation [t.gen]'s snapshots and bases from scratch (store
   creation and reopen re-baselining). *)
let baseline t ~db ~m =
  let shards = Shard_map.shards t.map in
  let asof = m.m_next_lsn - 1 in
  let trees = Shard_db.trees db in
  for i = 0 to shards - 1 do
    let st = t.streams.(i) in
    let chain =
      write_full_snapshot t st i trees.(i) (Printf.sprintf "shard%d.%d.snap" i t.gen)
    in
    st.st_base <-
      { b_files = chain; b_asof = asof; b_ctr = m.m_ctr; b_last_user = m.m_last_user;
        b_sig = m.m_root_sig }
  done;
  let meta_name = Printf.sprintf "meta.%d.snap" t.gen in
  write_meta_snapshot_file (t.dir // meta_name) m;
  t.streams.(shards).st_base <-
    { b_files = [ meta_name ]; b_asof = asof; b_ctr = m.m_ctr;
      b_last_user = m.m_last_user; b_sig = m.m_root_sig };
  write_bases t;
  write_current t.dir t.gen

let dummy_base = { b_files = []; b_asof = -1; b_ctr = 0; b_last_user = -1; b_sig = None }

let fresh_streams dir ~shards ~gen ~fsync =
  make_streams dir ~shards ~gen ~fsync
    (Array.make (shards + 1) (dummy_base, 0))
    (Array.make (shards + 1) 0)

let validate_config ~checkpoint_every ~segment_bytes ~compact_segments ~durability
    =
  if checkpoint_every < 1 then Error "checkpoint_every must be >= 1"
  else if segment_bytes < 256 then Error "segment_bytes must be >= 256"
  else if compact_segments < 1 then Error "compact_segments must be >= 1"
  else
    match durability with
    | Every_n n when n < 1 -> Error "every:N durability needs N >= 1"
    | Per_op | Per_round | Every_n _ -> Ok ()

let create_or_open ?(fsync = false) ?(durability = Per_op)
    ?(checkpoint_every = 64) ?(segment_bytes = 1 lsl 20) ?(compact_segments = 2)
    ~dir ~branching ~shards ~initial () =
  let* () =
    validate_config ~checkpoint_every ~segment_bytes ~compact_segments
      ~durability
  in
  mkdir_p dir;
  if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
  else if not (manifest_exists dir) then begin
    let map = Shard_map.create ~branching ~shards ~keys:(List.map fst initial) in
    let db = Shard_db.of_map map initial in
    write_manifest dir ~payload:(Shard_map.encode map);
    let m = fresh_meta ~next_lsn:0 in
    let t =
      {
        dir;
        map;
        fsync;
        durability;
        checkpoint_every;
        segment_bytes;
        compact_segments;
        gen = 0;
        next_lsn = 0;
        streams = fresh_streams dir ~shards ~gen:0 ~fsync;
        ctr = 0;
        last_user = -1;
        root_sig = None;
        backups = [];
        seqs = [];
        replies = [];
        origins = [];
        dirty = Array.make shards false;
        last_db = db;
        staged_since_flush = 0;
        prev_referenced = [];
        ops_since_checkpoint = 0;
        closed = false;
      }
    in
    baseline t ~db ~m;
    Log.info (fun f -> f "%s: fresh store, %d shard(s)" dir shards);
    Ok (t, `Fresh)
  end
  else begin
    let* map = read_manifest dir in
    let shards = Shard_map.shards map in
    let* g = read_current dir in
    let* l = load_generation dir ~map g in
    (* Durable data outlives the run; session bookkeeping does not:
       re-baseline the recovered database as a fresh generation with
       fresh bookkeeping. *)
    let g' = g + 1 in
    let m' = fresh_meta ~next_lsn:l.l_meta.m_next_lsn in
    let t =
      {
        dir;
        map;
        fsync;
        durability;
        checkpoint_every;
        segment_bytes;
        compact_segments;
        gen = g';
        next_lsn = l.l_meta.m_next_lsn;
        streams = fresh_streams dir ~shards ~gen:g' ~fsync;
        ctr = 0;
        last_user = -1;
        root_sig = None;
        backups = [];
        seqs = [];
        replies = [];
        origins = [];
        dirty = Array.make shards false;
        last_db = l.l_db;
        staged_since_flush = 0;
        prev_referenced = [];
        ops_since_checkpoint = 0;
        closed = false;
      }
    in
    baseline t ~db:l.l_db ~m:m';
    (* The previous generations are dead: a reopen is a fresh session,
       not a restart, so there is nothing to roll back to. *)
    gc t ~prev:(-1);
    Log.info (fun f ->
        f "%s: reopened store (%d entries), re-baselined as generation %d" dir
          (Shard_db.size l.l_db) g');
    Ok (t, `Reopened)
  end

(* A daemon restart must look like the same session continuing — same
   generation, same counter, same pending session bookkeeping — not a
   re-baselined fresh run (that is what makes an honest `kill -9` +
   restart invisible to the protocol layer, and a rollback visible). *)
let resume ?(fsync = false) ?(durability = Per_op) ?(checkpoint_every = 64)
    ?(segment_bytes = 1 lsl 20) ?(compact_segments = 2) ~dir () =
  let* () =
    validate_config ~checkpoint_every ~segment_bytes ~compact_segments
      ~durability
  in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (dir ^ ": no store to resume")
  else if not (manifest_exists dir) then Error (dir ^ ": no MANIFEST")
  else
    let* map = read_manifest dir in
    let shards = Shard_map.shards map in
    let* g = read_current dir in
    let* l = load_generation dir ~map g in
    let t =
      {
        dir;
        map;
        fsync;
        durability;
        checkpoint_every;
        segment_bytes;
        compact_segments;
        gen = g;
        next_lsn = l.l_meta.m_next_lsn;
        streams = make_streams dir ~shards ~gen:g ~fsync l.l_entries l.l_active;
        ctr = l.l_meta.m_ctr;
        last_user = l.l_meta.m_last_user;
        root_sig = l.l_meta.m_root_sig;
        backups = l.l_meta.m_backups;
        seqs = l.l_meta.m_seqs;
        replies = l.l_meta.m_replies;
        origins = [];
        dirty = l.l_dirty;
        last_db = l.l_db;
        staged_since_flush = 0;
        prev_referenced = bases_files dir (g - 1);
        ops_since_checkpoint = 0;
        closed = false;
      }
    in
    Obs.incr c_resumes;
    Log.info (fun f ->
        f "%s: resumed generation %d (ctr %d, %d entries)" dir g l.l_meta.m_ctr
          (Shard_db.size l.l_db));
    Ok (t, recovered_of l.l_db l.l_meta)

(* Like {!recover}, but re-read the MANIFEST from disk first — the
   recovery path a real restart takes, which the torn-manifest
   adversary corrupts. The shard map is immutable, so a successful
   (possibly repaired) read must match the in-memory one. *)
let recover_reload t =
  match read_manifest t.dir with
  | Error _ as e -> e
  | Ok map ->
      if not (String.equal (Shard_map.encode map) (Shard_map.encode t.map)) then
        Error (t.dir ^ ": MANIFEST changed shard map under a live store")
      else recover t

(* ---- crash-injection hooks (adversaries) ---------------------------- *)

(* Simulate a process death mid-checkpoint: flush what a real
   checkpoint would have flushed, write one complete next-generation
   shard snapshot and one half-written temp file, and stop before
   bases/CURRENT publish the new generation. Recovery must land on the
   old generation and ignore the aliens. *)
let debug_partial_checkpoint t ~db =
  flush_streams t;
  let g' = t.gen + 1 in
  let trees = Shard_db.trees db in
  Snapshot.write
    (t.dir // Printf.sprintf "shard0.%d.snap" g')
    ~payload:
      (shard_payload 0 trees.(0) ~known:(fun _ -> false) ~fresh:(ref []) ~refs:(ref []));
  let tmp = t.dir // Printf.sprintf "meta.%d.snap.tmp" g' in
  let oc = open_out_bin tmp in
  output_string oc "TCVSSNP1\x00\x00half-written";
  close_out oc

(* Simulate a process death mid-compaction. With [~publish:false] the
   compaction snapshot exists but bases was never rewritten: an orphan
   replay ignores. With [~publish:true] the new base is durable but
   the folded segments were not yet deleted: recovery must start from
   the compacted base and skip the stale segments. When nothing is
   sealed yet, the crash only leaves a half-written temp file. *)
let debug_partial_compact t ~publish =
  flush_streams t;
  let sealed =
    Array.to_list t.streams
    |> List.filter_map (fun st ->
           match st.st_seal with Some se -> Some (st, se) | None -> None)
  in
  match sealed with
  | [] ->
      let tmp = t.dir // Printf.sprintf "meta.%d.c0.snap.tmp" t.gen in
      let oc = open_out_bin tmp in
      output_string oc "TCVSSNP1half";
      close_out oc
  | (st, se) :: _ ->
      let chain = write_compaction_snapshot t st se in
      if publish then begin
        st.st_base <-
          {
            b_files = chain;
            b_asof = se.se_asof;
            b_ctr = se.se_ctr;
            b_last_user = se.se_last_user;
            b_sig = se.se_sig;
          };
        st.st_first_seg <- st.st_seg;
        st.st_seal <- None;
        write_bases t
        (* ...and die before deleting the folded segments. *)
      end;
      (* The process dies: its persisted-digest set dies with it. *)
      Digest_set.reset st.st_persisted

(* ---- read-only inspection (tcvs_cli store-inspect) ------------------ *)

type segment_info = {
  seg_file : string;
  seg_index : int;
  seg_bytes : int;
  seg_records : int;  (* data records, excluding the header *)
  seg_lsn_lo : int;  (* -1 when the segment holds no data records *)
  seg_lsn_hi : int;
  seg_sealed : bool;
  seg_status : string;  (* "ok" | "torn tail" | error text *)
}

type chain_file = {
  cf_file : string;
  cf_bytes : int;  (* -1 when the file is missing *)
  cf_delta : bool;  (* false for the chain's leading full snapshot *)
}

type stream_info = {
  str_name : string;
  str_chain : chain_file list;  (* oldest first *)
  str_base_asof : int;
  str_base_ok : bool;
  str_compacted : bool;  (* first live segment > 0 *)
  str_first_seg : int;
  str_segments : segment_info list;
}

type info = {
  info_dir : string;
  info_shards : int;
  info_branching : int;
  info_generation : int;
  info_manifest : string;
  info_next_lsn : int;  (* 1 + highest LSN seen across bases and segments *)
  info_streams : stream_info list;
  info_live_segments : int;
  info_orphans : string list;
}

(* Strictly read-only: manifest reads skip the repair path, and segment
   reads use [~repair:false] so a torn tail is reported, not truncated. *)
let inspect ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (dir ^ ": no such store directory")
  else
    let try_map path =
      match Snapshot.read path with
      | Error _ as e -> e
      | Ok payload -> (
          match Shard_map.decode payload with
          | Some map -> Ok map
          | None -> Error (path ^ ": malformed manifest"))
    in
    let* map, manifest_status =
      match try_map (manifest_path dir) with
      | Ok map -> Ok (map, "ok")
      | Error primary -> (
          match try_map (manifest_bak_path dir) with
          | Ok map -> Ok (map, "primary damaged, backup ok (" ^ primary ^ ")")
          | Error backup ->
              Error
                (Printf.sprintf "manifest unrecoverable (%s; backup: %s)" primary
                   backup))
    in
    let shards = Shard_map.shards map in
    let* g = read_current dir in
    let* entries = read_bases dir g ~count:(shards + 1) in
    let accounted = ref [ "MANIFEST"; "MANIFEST.bak"; "CURRENT"; Printf.sprintf "bases.%d" g ] in
    let account f = accounted := f :: !accounted in
    let max_lsn = ref (-1) in
    let streams =
      List.init (shards + 1) (fun i ->
          let base, first = entries.(i) in
          let name = stream_name ~shards i in
          List.iter account base.b_files;
          if base.b_asof > !max_lsn then max_lsn := base.b_asof;
          let chain =
            List.mapi
              (fun j f ->
                let path = dir // f in
                { cf_file = f;
                  cf_bytes =
                    (if Sys.file_exists path then (Unix.stat path).Unix.st_size else -1);
                  cf_delta = j > 0 })
              base.b_files
          in
          (* The whole chain must rebuild and verify, not just its files'
             checksums. *)
          let base_ok =
            if i < shards then
              Result.is_ok
                (load_shard_chain dir ~branching:(Shard_map.branching map) i base.b_files)
            else
              match base.b_files with
              | [ f ] -> Result.is_ok (load_meta_snapshot_file (dir // f))
              | _ -> false
          in
          let rec segs s acc =
            let path = seg_path dir name g s in
            if not (Sys.file_exists path) then List.rev acc
            else begin
              let file = Filename.basename path in
              account file;
              let bytes = (Unix.stat path).Unix.st_size in
              let sealed = Sys.file_exists (seg_path dir name g (s + 1)) in
              let info =
                match Wal.read ~repair:false path with
                | Error e ->
                    { seg_file = file; seg_index = s; seg_bytes = bytes;
                      seg_records = 0; seg_lsn_lo = -1; seg_lsn_hi = -1;
                      seg_sealed = sealed; seg_status = e }
                | Ok { Wal.records; truncated } ->
                    let data, status =
                      match records with
                      | [] -> ([], if truncated then "torn tail" else "ok")
                      | (_, header) :: rest ->
                          if seg_header_matches ~name ~gen:g ~seg:s header then
                            (rest, if truncated then "torn tail" else "ok")
                          else (rest, "bad segment header")
                    in
                    let lo, hi, n =
                      List.fold_left
                        (fun (lo, hi, n) (lsn, _) ->
                          ((if lo = -1 then lsn else min lo lsn), max hi lsn, n + 1))
                        (-1, -1, 0) data
                    in
                    if hi > !max_lsn then max_lsn := hi;
                    { seg_file = file; seg_index = s; seg_bytes = bytes;
                      seg_records = n; seg_lsn_lo = lo; seg_lsn_hi = hi;
                      seg_sealed = sealed; seg_status = status }
              in
              segs (s + 1) (info :: acc)
            end
          in
          {
            str_name = name;
            str_chain = chain;
            str_base_asof = base.b_asof;
            str_base_ok = base_ok;
            str_compacted = first > 0;
            str_first_seg = first;
            str_segments = segs first [];
          })
    in
    (* Previous-generation files are retained on purpose (stale
       recovery rolls back to them); anything else unaccounted is an
       orphan: crash leftovers, stale folded segments, dead bases. *)
    let prev = g - 1 in
    let prev_refs = bases_files dir prev in
    let files = Sys.readdir dir in
    Array.sort String.compare files;
    let orphans =
      Array.to_list files
      |> List.filter (fun f ->
             (not (List.mem f !accounted))
             &&
             match classify_file f with
             | Some (Gc_bases g1) | Some (Gc_wal g1) -> g1 <> prev
             | Some (Gc_snap _) -> not (List.mem f prev_refs)
             | None -> true)
    in
    Ok
      {
        info_dir = dir;
        info_shards = shards;
        info_branching = Shard_map.branching map;
        info_generation = g;
        info_manifest = manifest_status;
        info_next_lsn = !max_lsn + 1;
        info_streams = streams;
        info_live_segments =
          List.fold_left (fun n si -> n + List.length si.str_segments) 0 streams;
        info_orphans = orphans;
      }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (fun st -> Wal.close_writer st.st_writer) t.streams
  end
