(* The durable store: WAL framing and failure policy, snapshots, shard
   maps, crash recovery (byte-identical roots, pinned), stale-recovery
   rollback, reopen re-baselining, and the crash adversaries end to end
   through the harness. *)

open Tcvs
module T = Mtree.Merkle_btree
module Vo = Mtree.Vo
module S = Workload.Schedule

(* ---- scratch directories -------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tcvs-store-test-%d-%s" (Unix.getpid ()) name)
  in
  rm_rf dir;
  dir

(* ---- WAL ------------------------------------------------------------- *)

let wal_path dir = Filename.concat dir "test.wal"

let with_wal name records =
  let dir = fresh_dir name in
  Unix.mkdir dir 0o755;
  let path = wal_path dir in
  let w = Store.Wal.open_writer path in
  List.iter (fun (lsn, payload) -> Store.Wal.append w ~lsn ~payload) records;
  Store.Wal.close_writer w;
  path

let read_ok path =
  match Store.Wal.read path with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected WAL read error: %s" e

let test_wal_empty () =
  let dir = fresh_dir "wal-empty" in
  let r = read_ok (Filename.concat dir "absent.wal") in
  Alcotest.(check int) "no records" 0 (List.length r.Store.Wal.records);
  Alcotest.(check bool) "not truncated" false r.Store.Wal.truncated

let test_wal_roundtrip () =
  let records = [ (0, "alpha"); (1, String.make 300 'x'); (2, "") ] in
  let path = with_wal "wal-roundtrip" records in
  let r = read_ok path in
  Alcotest.(check (list (pair int string))) "records round-trip" records r.Store.Wal.records;
  Alcotest.(check bool) "not truncated" false r.Store.Wal.truncated

let chop path bytes =
  let len = (Unix.stat path).Unix.st_size in
  Unix.truncate path (len - bytes)

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* Frame layout: 16-byte header + payload. *)
let frame_size payload = 16 + String.length payload

let test_wal_torn_tail () =
  let path = with_wal "wal-torn" [ (0, "first"); (1, "second-record") ] in
  chop path 4;
  let r = read_ok path in
  Alcotest.(check (list (pair int string))) "tail dropped" [ (0, "first") ] r.Store.Wal.records;
  Alcotest.(check bool) "flagged truncated" true r.Store.Wal.truncated;
  (* The torn bytes were physically removed: a second read is clean. *)
  let r2 = read_ok path in
  Alcotest.(check (list (pair int string))) "repaired" [ (0, "first") ] r2.Store.Wal.records;
  Alcotest.(check bool) "no longer truncated" false r2.Store.Wal.truncated

let test_wal_midlog_corruption () =
  let path = with_wal "wal-corrupt" [ (0, "first"); (1, "second"); (2, "third") ] in
  (* Flip a payload byte of the middle record: data follows, so this
     cannot be a torn append — it must be a hard error. *)
  flip_byte path (frame_size "first" + 16);
  (match Store.Wal.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-log corruption must be a hard error")

let test_wal_corrupt_final_is_torn () =
  let path = with_wal "wal-corrupt-final" [ (0, "first"); (1, "second") ] in
  flip_byte path (frame_size "first" + 16);
  let r = read_ok path in
  Alcotest.(check (list (pair int string))) "final record dropped" [ (0, "first") ]
    r.Store.Wal.records;
  Alcotest.(check bool) "flagged truncated" true r.Store.Wal.truncated

(* ---- snapshots ------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir "snap" in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "x.snap" in
  let payload = "payload \x00 with binary \xff bytes" in
  Store.Snapshot.write path ~payload;
  (match Store.Snapshot.read path with
  | Ok p -> Alcotest.(check string) "payload round-trips" payload p
  | Error e -> Alcotest.fail e);
  flip_byte path 20;
  (match Store.Snapshot.read path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt snapshot must not read back");
  match Store.Snapshot.read (Filename.concat dir "missing.snap") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing snapshot must be an error"

(* ---- shard map / shard db ------------------------------------------- *)

let initial_files n =
  List.init n (fun i -> (Printf.sprintf "src/file_%02d.ml" i, Printf.sprintf "v0-%d" i))

let test_shard_map_routing () =
  let keys = List.map fst (initial_files 32) in
  let map = Store.Shard_map.create ~branching:8 ~shards:4 ~keys in
  let boundaries = Store.Shard_map.boundaries map in
  Alcotest.(check int) "3 boundaries" 3 (Array.length boundaries);
  Array.iteri
    (fun i b -> if i > 0 then Alcotest.(check bool) "strictly sorted" true (boundaries.(i - 1) < b))
    boundaries;
  List.iter
    (fun k ->
      let i = Store.Shard_map.route map k in
      Alcotest.(check bool) "route in range" true (i >= 0 && i < 4);
      if i > 0 then Alcotest.(check bool) "above lower boundary" true (k >= boundaries.(i - 1));
      if i < 3 then Alcotest.(check bool) "below upper boundary" true (k < boundaries.(i)))
    keys;
  (match Store.Shard_map.decode (Store.Shard_map.encode map) with
  | Some map' -> Alcotest.(check bool) "encode/decode round-trips" true (Store.Shard_map.equal map map')
  | None -> Alcotest.fail "shard map decode failed");
  (* Few distinct keys: the byte-space fallback still yields a valid map. *)
  let tiny = Store.Shard_map.create ~branching:8 ~shards:4 ~keys:[ "only" ] in
  Alcotest.(check int) "fallback boundaries" 3 (Array.length (Store.Shard_map.boundaries tiny))

let test_single_shard_is_flat () =
  let initial = initial_files 20 in
  let db = Store.Shard_db.create ~branching:8 ~shards:1 initial in
  let flat = T.of_alist ~branching:8 initial in
  Alcotest.(check string) "one shard root = flat tree root (byte-identical)"
    (Crypto.Hex.encode (T.root_digest flat))
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))

let ops_script : Vo.op list =
  [
    Vo.Set ("src/file_03.ml", "A1");
    Vo.Set ("zzz/new.ml", "Z1");
    Vo.Set_many [ ("src/file_00.ml", "B1"); ("src/file_19.ml", "B2"); ("alpha", "B3") ];
    Vo.Get "src/file_05.ml";
    Vo.Remove "src/file_07.ml";
    Vo.Range ("src/file_00.ml", "src/file_09.ml");
    Vo.Set ("src/file_11.ml", "C1");
    Vo.Set_many [];
  ]

let test_shard_db_matches_oracle () =
  let initial = initial_files 20 in
  let sharded = ref (Store.Shard_db.create ~branching:8 ~shards:4 initial) in
  let flat = ref (T.of_alist ~branching:8 initial) in
  List.iter
    (fun op ->
      let sdb', sa = Store.Shard_db.apply !sharded op in
      let fdb', fa = Sim.Oracle.trusted_answer !flat op in
      sharded := sdb';
      flat := fdb';
      Alcotest.(check bool) "answers agree" true (Sim.Oracle.answers_equal sa fa))
    ops_script;
  Alcotest.(check (list (pair string string))) "contents agree"
    (T.to_alist !flat)
    (Store.Shard_db.to_alist !sharded);
  match Store.Shard_db.check_invariants !sharded with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---- store lifecycle ------------------------------------------------- *)

let expect_fresh = function
  | Ok (s, `Fresh) -> s
  | Ok (_, `Reopened) -> Alcotest.fail "expected a fresh store"
  | Error e -> Alcotest.fail e

let expect_reopened = function
  | Ok (s, `Reopened) -> s
  | Ok (_, `Fresh) -> Alcotest.fail "expected a reopened store"
  | Error e -> Alcotest.fail e

let expect_recovered = function
  | Ok r -> r
  | Error e -> Alcotest.failf "recovery failed: %s" e

(* Apply [ops] through the shard db while logging each to the store,
   exactly as the server does. Returns the final database. *)
let apply_logged store db0 ops =
  List.fold_left
    (fun (db, i) op ->
      let db, _answer = Store.Shard_db.apply db op in
      Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:(i mod 3);
      (db, i + 1))
    (db0, 0) ops
  |> fst

(* Pins the exact 4-shard composed root digest after [ops_script] over
   [initial_files 20] — recovery, bulk load and shard composition must
   all keep reproducing these bytes. *)
let pinned_final_root = "423c5f1b9734fc617ec6ea4acaba47b698449e3b8de6f36f3688b66ef0304c24"

let test_store_crash_recovery_root () =
  let dir = fresh_dir "recover" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  let live_root = Store.Shard_db.root_digest db in
  Alcotest.(check string) "live root is pinned" pinned_final_root
    (Crypto.Hex.encode live_root);
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovered root byte-identical"
    (Crypto.Hex.encode live_root)
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter recovered" (List.length ops_script) r.Store.ctr;
  Alcotest.(check int) "last user recovered" ((List.length ops_script - 1) mod 3)
    r.Store.last_user;
  (* Recovery = snapshot + replay must also equal a from-scratch bulk
     load of the final contents (of_sorted_array is node-for-node the
     incremental tree). *)
  let rebuilt =
    Store.Shard_db.of_map (Store.shard_map store) (Store.Shard_db.to_alist db)
  in
  Alcotest.(check string) "fresh bulk load agrees"
    (Crypto.Hex.encode live_root)
    (Crypto.Hex.encode (Store.Shard_db.root_digest rebuilt));
  Store.close store

let test_store_recovery_across_checkpoints () =
  let dir = fresh_dir "recover-ckpt" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:3 ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Alcotest.(check bool) "auto-checkpoints advanced the generation" true
    (Store.generation store > 0);
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "root byte-identical across checkpoint + tail"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  (* Snapshot + empty tail: checkpoint, then recover with no WAL records
     after it. *)
  Store.checkpoint store ~db;
  let r2 = expect_recovered (Store.recover store) in
  Alcotest.(check string) "snapshot-only recovery agrees"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2.Store.db));
  Store.close store

let test_store_recovery_torn_tail () =
  let dir = fresh_dir "recover-torn" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.close store;
  (* A crash mid-append leaves a partial frame on some shard's log;
     recovery (via reopen) must shrug it off. *)
  let target = Filename.concat dir "shard0.0.0.wal" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 target in
  output_string oc "\x00\x00\x01";
  close_out oc;
  let store2 = expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ()) in
  Alcotest.(check string) "torn tail dropped, state intact"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2

let test_store_stale_recovery_rewinds () =
  let dir = fresh_dir "stale" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let half, rest =
    (List.filteri (fun i _ -> i < 4) ops_script, List.filteri (fun i _ -> i >= 4) ops_script)
  in
  let db1 = apply_logged store (Store.db store) half in
  Store.checkpoint store ~db:db1;
  let db2 =
    List.fold_left
      (fun (db, i) op ->
        let db, _ = Store.Shard_db.apply db op in
        Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:(i mod 3);
        (db, i + 1))
      (db1, List.length half) rest
    |> fst
  in
  let r = expect_recovered (Store.recover_stale store) in
  (* The stale generation is the pre-checkpoint baseline: everything —
     even the checkpointed half — is adversarially forgotten. *)
  Alcotest.(check string) "rewound to the initial baseline"
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.Shard_db.create ~branching:8 ~shards:4 initial)))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter rewound" 0 r.Store.ctr;
  Alcotest.(check bool) "state regressed" true
    (not
       (String.equal
          (Store.Shard_db.root_digest r.Store.db)
          (Store.Shard_db.root_digest db2)));
  (* And the store keeps working from the rewound state. *)
  let db', _ = Store.Shard_db.apply r.Store.db (Vo.Set ("post/crash.ml", "P1")) in
  Store.log_op store ~db:db' ~op:(Vo.Set ("post/crash.ml", "P1")) ~ctr:1 ~last_user:0;
  let r2 = expect_recovered (Store.recover store) in
  Alcotest.(check string) "post-rollback writes recoverable"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db'))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2.Store.db));
  Store.close store

let test_store_reopen_rebaselines () =
  let dir = fresh_dir "reopen" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  let gen0 = Store.generation store in
  Store.close store;
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "data survives the reopen"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Alcotest.(check bool) "re-baselined as a new generation" true
    (Store.generation store2 > gen0);
  Alcotest.(check (list (pair string string))) "contents identical"
    (Store.Shard_db.to_alist db)
    (Store.Shard_db.to_alist (Store.db store2));
  Store.close store2

(* ---- group commit: durability modes ---------------------------------- *)

(* Whatever the flush cadence, a flushed store recovers to the same
   pinned bytes Per_op produces — group commit batches the I/O, never
   the semantics. *)
let test_store_durability_modes_equivalent () =
  List.iter
    (fun (durability, name) ->
      let dir = fresh_dir ("durability-" ^ name) in
      let initial = initial_files 20 in
      let store =
        expect_fresh
          (Store.create_or_open ~durability ~dir ~branching:8 ~shards:4 ~initial ())
      in
      let db = apply_logged store (Store.db store) ops_script in
      Store.flush store;
      let r = expect_recovered (Store.recover store) in
      Alcotest.(check string)
        (name ^ ": recovered root is the pinned Per_op root")
        pinned_final_root
        (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
      Alcotest.(check string) (name ^ ": live root agrees")
        (Crypto.Hex.encode (Store.Shard_db.root_digest db))
        (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
      Alcotest.(check int) (name ^ ": counter recovered") (List.length ops_script)
        r.Store.ctr;
      Store.close store;
      rm_rf dir)
    [ (Store.Per_round, "per-round"); (Store.Every_n 3, "every-3") ]

(* Under deferred durability a crash loses exactly the staged-but-
   unflushed tail — never anything a completed flush covered. *)
let test_store_staged_tail_lost_on_crash () =
  let dir = fresh_dir "staged-loss" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~durability:Store.Per_round ~dir ~branching:8 ~shards:4
         ~initial ())
  in
  let half, rest =
    (List.filteri (fun i _ -> i < 4) ops_script, List.filteri (fun i _ -> i >= 4) ops_script)
  in
  let db1 = apply_logged store (Store.db store) half in
  Store.flush store;
  (* Stage the rest without a round boundary: a crash now loses it. *)
  let db2 =
    List.fold_left
      (fun (db, i) op ->
        let db, _ = Store.Shard_db.apply db op in
        Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:(i mod 3);
        (db, i + 1))
      (db1, List.length half) rest
    |> fst
  in
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovered to the last flush point"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db1))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter rewound to the flush point" (List.length half) r.Store.ctr;
  Alcotest.(check bool) "the staged tail really was dropped" true
    (not
       (String.equal
          (Store.Shard_db.root_digest r.Store.db)
          (Store.Shard_db.root_digest db2)));
  (* The store keeps logging cleanly from the recovered state. *)
  let db', _ = Store.Shard_db.apply r.Store.db (Vo.Set ("post/loss.ml", "L1")) in
  Store.log_op store ~db:db' ~op:(Vo.Set ("post/loss.ml", "L1"))
    ~ctr:(r.Store.ctr + 1) ~last_user:0;
  Store.flush store;
  let r2 = expect_recovered (Store.recover store) in
  Alcotest.(check string) "post-recovery writes durable"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db'))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r2.Store.db));
  Store.close store;
  rm_rf dir

(* ---- segment rotation + compaction ----------------------------------- *)

let bulk_ops n =
  List.init n (fun i ->
      Vo.Set
        ( Printf.sprintf "bulk/key_%03d.ml" i,
          String.make 80 (Char.chr (65 + (i mod 26))) ))

let test_store_rotation_compaction_equivalence () =
  let dir = fresh_dir "rotate" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~segment_bytes:256 ~compact_segments:2
         ~checkpoint_every:1000 ~dir ~branching:8 ~shards:2 ~initial ())
  in
  let db = apply_logged store (Store.db store) (bulk_ops 40) in
  Store.flush store;
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovery across rolls + compaction is byte-identical"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" 40 r.Store.ctr;
  Store.close store;
  (match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      Alcotest.(check int) "no checkpoint happened" 0 info.Store.info_generation;
      (* A first live segment past index 0 proves earlier segments both
         existed (rotation) and were folded away (compaction). *)
      Alcotest.(check bool) "rotation sealed and retired segments" true
        (List.exists (fun s -> s.Store.str_first_seg > 0) info.Store.info_streams);
      Alcotest.(check bool) "at least one stream was compacted" true
        (List.exists (fun s -> s.Store.str_compacted) info.Store.info_streams);
      List.iter
        (fun (s : Store.stream_info) ->
          Alcotest.(check bool) (s.Store.str_name ^ ": base reads back") true
            s.Store.str_base_ok;
          List.iter
            (fun (g : Store.segment_info) ->
              Alcotest.(check string) (g.Store.seg_file ^ ": clean") "ok"
                g.Store.seg_status)
            s.Store.str_segments)
        info.Store.info_streams);
  (* Cold reopen replays base + live segments only — same bytes. *)
  let store2 =
    expect_reopened
      (Store.create_or_open ~segment_bytes:256 ~compact_segments:2 ~dir ~branching:8
         ~shards:2 ~initial ())
  in
  Alcotest.(check string) "cold reopen agrees"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2;
  rm_rf dir

(* ---- crash windows: mid-checkpoint, mid-compaction ------------------- *)

let test_store_partial_checkpoint_ignored () =
  let dir = fresh_dir "partial-ckpt" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:4
         ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.debug_partial_checkpoint store ~db;
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovery lands on the old generation, bytes intact"
    pinned_final_root
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" (List.length ops_script) r.Store.ctr;
  Store.close store;
  (* The unpublished next-generation files are visible as orphans. *)
  (match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      Alcotest.(check int) "generation unchanged" 0 info.Store.info_generation;
      Alcotest.(check bool) "checkpoint leftovers are orphans" true
        (info.Store.info_orphans <> []));
  (* A cold reopen must shrug the leftovers off too. *)
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "cold reopen ignores the leftovers"
    pinned_final_root
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2;
  rm_rf dir

let test_store_partial_compact_recovers () =
  List.iter
    (fun publish ->
      let label = if publish then "published" else "unpublished" in
      let dir = fresh_dir ("partial-compact-" ^ label) in
      let initial = initial_files 20 in
      (* Roll often but never auto-compact, so sealed segments are
         guaranteed to exist when the crash strikes. *)
      let store =
        expect_fresh
          (Store.create_or_open ~segment_bytes:256 ~compact_segments:100
             ~checkpoint_every:1000 ~dir ~branching:8 ~shards:2 ~initial ())
      in
      let db = apply_logged store (Store.db store) (bulk_ops 40) in
      Store.debug_partial_compact store ~publish;
      let r = expect_recovered (Store.recover store) in
      Alcotest.(check string) (label ^ ": recovery byte-identical")
        (Crypto.Hex.encode (Store.Shard_db.root_digest db))
        (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
      Alcotest.(check int) (label ^ ": counter intact") 40 r.Store.ctr;
      (* The store stays serviceable: log, flush, recover again. *)
      let db', _ = Store.Shard_db.apply r.Store.db (Vo.Set ("post/compact.ml", "P1")) in
      Store.log_op store ~db:db' ~op:(Vo.Set ("post/compact.ml", "P1")) ~ctr:41
        ~last_user:0;
      Store.flush store;
      let r2 = expect_recovered (Store.recover store) in
      Alcotest.(check string) (label ^ ": post-recovery writes durable")
        (Crypto.Hex.encode (Store.Shard_db.root_digest db'))
        (Crypto.Hex.encode (Store.Shard_db.root_digest r2.Store.db));
      Store.close store;
      rm_rf dir)
    [ false; true ]

(* ---- incremental checkpoints ----------------------------------------- *)

let test_store_incremental_checkpoint () =
  let dir = fresh_dir "incr-ckpt" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:8 ~shards:4
         ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.checkpoint store ~db;
  let g1 = Store.generation store in
  (* Dirty exactly one shard, then checkpoint again. *)
  let key = "src/file_03.ml" in
  let dirty_shard = Store.Shard_map.route (Store.shard_map store) key in
  let db2, _ = Store.Shard_db.apply db (Vo.Set (key, "INCR")) in
  Store.log_op store ~db:db2 ~op:(Vo.Set (key, "INCR"))
    ~ctr:(List.length ops_script + 1) ~last_user:0;
  Store.checkpoint store ~db:db2;
  let g2 = Store.generation store in
  Alcotest.(check int) "checkpoint advanced the generation" (g1 + 1) g2;
  (* Only the dirtied shard got a fresh snapshot file; clean shards
     carry their base forward through the bases file. *)
  for i = 0 to 3 do
    let fresh_snap = Filename.concat dir (Printf.sprintf "shard%d.%d.snap" i g2) in
    Alcotest.(check bool)
      (Printf.sprintf "shard%d %s a generation-%d snapshot" i
         (if i = dirty_shard then "has" else "does not have")
         g2)
      (i = dirty_shard)
      (Sys.file_exists fresh_snap)
  done;
  Alcotest.(check bool) "meta is always re-snapshotted" true
    (Sys.file_exists (Filename.concat dir (Printf.sprintf "meta.%d.snap" g2)));
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovery from the mixed-generation bases"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db2))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" (List.length ops_script + 1) r.Store.ctr;
  Store.close store;
  (* Cold restart reads the same mixed bases. *)
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "cold reopen agrees"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db2))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2;
  rm_rf dir

(* ---- store-inspect ---------------------------------------------------- *)

let test_store_inspect_layout () =
  let dir = fresh_dir "inspect" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:2 ~initial ())
  in
  ignore (apply_logged store (Store.db store) ops_script);
  Store.close store;
  match Store.inspect ~dir with
  | Error e -> Alcotest.failf "inspect failed: %s" e
  | Ok info ->
      Alcotest.(check int) "shards" 2 info.Store.info_shards;
      Alcotest.(check int) "branching" 8 info.Store.info_branching;
      Alcotest.(check int) "generation" 0 info.Store.info_generation;
      Alcotest.(check string) "manifest" "ok" info.Store.info_manifest;
      Alcotest.(check int) "streams = shards + meta" 3
        (List.length info.Store.info_streams);
      Alcotest.(check (list string)) "no orphans" [] info.Store.info_orphans;
      List.iter
        (fun (s : Store.stream_info) ->
          Alcotest.(check bool) (s.Store.str_name ^ ": base ok") true s.Store.str_base_ok;
          Alcotest.(check bool) (s.Store.str_name ^ ": not compacted") false
            s.Store.str_compacted;
          List.iter
            (fun (g : Store.segment_info) ->
              Alcotest.(check string) (g.Store.seg_file ^ ": ok") "ok" g.Store.seg_status)
            s.Store.str_segments)
        info.Store.info_streams;
      rm_rf dir

(* ---- delta checkpoint chains ------------------------------------------ *)

let hex_root db = Crypto.Hex.encode (Store.Shard_db.root_digest db)

let inspect_ok dir =
  match Store.inspect ~dir with
  | Ok info -> info
  | Error e -> Alcotest.failf "inspect failed: %s" e

let chain_of info name =
  match List.find_opt (fun s -> String.equal s.Store.str_name name) info.Store.info_streams with
  | Some s -> s.Store.str_chain
  | None -> Alcotest.failf "no stream %s" name

let set_op i = Vo.Set (Printf.sprintf "src/file_%02d.ml" (i mod 20), Printf.sprintf "d%d" i)

(* Many checkpoints append deltas until their bytes reach the full
   snapshot's, which starts a new chain; the store recovers the live
   root through every shape the chain takes on the way. *)
let test_store_delta_chain_recovery () =
  let dir = fresh_dir "delta-chain" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1 ~dir ~branching:4 ~shards:1 ~initial ())
  in
  let longest = ref 1 and restarted = ref false in
  let db = ref (Store.db store) in
  for i = 0 to 79 do
    let op = set_op i in
    let db', _ = Store.Shard_db.apply !db op in
    db := db';
    Store.log_op store ~db:db' ~op ~ctr:(i + 1) ~last_user:0;
    let chain = chain_of (inspect_ok dir) "shard0" in
    let len = List.length chain in
    if len < !longest then restarted := true;
    longest := max !longest len;
    Alcotest.(check bool) "chain head is a full snapshot" false (List.hd chain).Store.cf_delta;
    Alcotest.(check bool) "the rest are deltas" true
      (List.for_all (fun c -> c.Store.cf_delta) (List.tl chain))
  done;
  Alcotest.(check bool) "deltas accumulated" true (!longest > 2);
  Alcotest.(check bool) "an automatic full rewrite started a new chain" true !restarted;
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovered root = live root" (hex_root !db) (hex_root r.Store.db);
  Store.close store;
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:4 ~shards:1 ~initial ())
  in
  Alcotest.(check string) "cold reopen agrees" (hex_root !db) (hex_root (Store.db store2));
  Store.close store2;
  rm_rf dir;
  (* The pinned 4-shard root, reached through one delta per op. *)
  let dir = fresh_dir "delta-pinned" in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1 ~dir ~branching:8 ~shards:4 ~initial ())
  in
  ignore (apply_logged store (Store.db store) ops_script);
  let r = expect_recovered (Store.recover store) in
  Alcotest.(check string) "recovered root is pinned" pinned_final_root (hex_root r.Store.db);
  Store.close store;
  rm_rf dir

(* Build a closed store whose shard 0 chain is [full; delta]: returns
   the dir, the database the full snapshot holds, and both files' paths. *)
let store_with_delta name =
  let dir = fresh_dir name in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:4 ~shards:1 ~initial ())
  in
  let db0 = Store.db store in
  let db, _ = Store.Shard_db.apply db0 (set_op 3) in
  Store.log_op store ~db ~op:(set_op 3) ~ctr:1 ~last_user:0;
  Store.checkpoint store ~db;
  Store.close store;
  match chain_of (inspect_ok dir) "shard0" with
  | [ full; delta ] ->
      Alcotest.(check bool) "second file is a delta" true delta.Store.cf_delta;
      (dir, db0, Filename.concat dir full.Store.cf_file,
       Filename.concat dir delta.Store.cf_file)
  | chain -> Alcotest.failf "expected a two-file chain, got %d" (List.length chain)

let expect_resume_error label dir =
  match Store.resume ~dir () with
  | Ok (s, r) ->
      Store.close s;
      Alcotest.failf "%s: recovered root %s instead of an error" label (hex_root r.Store.db)
  | Error _ -> ()

(* Damage anywhere in a chain is a recovery error, never a wrong root:
   a flipped byte (checksum), a missing parent, and a well-checksummed
   delta whose digest reference points at nothing the chain holds. *)
let test_store_delta_damage_is_an_error () =
  let dir, _, _, delta = store_with_delta "delta-flip" in
  flip_byte delta 40;
  expect_resume_error "flipped delta byte" dir;
  Alcotest.(check bool) "inspect flags the chain" false
    (List.hd (inspect_ok dir).Store.info_streams).Store.str_base_ok;
  rm_rf dir;
  let dir, _, full, _ = store_with_delta "delta-parent" in
  Sys.remove full;
  expect_resume_error "missing parent" dir;
  rm_rf dir;
  let dir, db0, _, delta = store_with_delta "delta-dangling" in
  let payload =
    match Store.Snapshot.read delta with Ok p -> p | Error e -> Alcotest.fail e
  in
  (* An unchanged child of the old root is written as tag 2 + digest;
     point that reference at a digest no file holds. *)
  let old_children =
    match T.root (Store.Shard_db.trees db0).(0) with
    | Mtree.Node.Node { children; _ } -> Array.to_list (Array.map Mtree.Node.digest children)
    | _ -> Alcotest.fail "expected an internal root"
  in
  let find_sub s sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.equal (String.sub s i n) sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let pos =
    match List.find_map (fun d -> find_sub payload ("\x02" ^ d)) old_children with
    | Some p -> p
    | None -> Alcotest.fail "delta holds no reference to an unchanged child"
  in
  let b = Bytes.of_string payload in
  Bytes.set b (pos + 1) (Char.chr (Char.code (Bytes.get b (pos + 1)) lxor 1));
  Store.Snapshot.write delta ~payload:(Bytes.to_string b);
  (match Store.resume ~dir () with
  | Ok (s, _) ->
      Store.close s;
      Alcotest.fail "a dangling digest reference must not recover"
  | Error e ->
      Alcotest.(check bool) ("typed unresolved-reference error: " ^ e) true
        (Option.is_some (find_sub e "unresolved node reference")));
  rm_rf dir

(* The previous generation's chain is a prefix of the current one, so a
   rollback across deltas lands exactly on the previous checkpoint. *)
let test_store_delta_stale_recovery () =
  let dir = fresh_dir "delta-stale" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:4 ~shards:2 ~initial ())
  in
  let step (db, i) =
    let db', _ = Store.Shard_db.apply db (set_op i) in
    Store.log_op store ~db:db' ~op:(set_op i) ~ctr:(i + 1) ~last_user:0;
    (db', i + 1)
  in
  let db1, n = step (step (Store.db store, 0)) in
  Store.checkpoint store ~db:db1;
  let db2, n = step (step (db1, n)) in
  Store.checkpoint store ~db:db2;
  Alcotest.(check bool) "the current chain holds deltas" true
    (List.exists
       (fun s -> List.length s.Store.str_chain > 2)
       (inspect_ok dir).Store.info_streams);
  let db3, _ = step (db2, n) in
  let r = expect_recovered (Store.recover_stale store) in
  Alcotest.(check string) "rolled back to the previous checkpoint" (hex_root db1)
    (hex_root r.Store.db);
  Alcotest.(check bool) "state regressed" false
    (String.equal (hex_root db3) (hex_root r.Store.db));
  (* The rewound store starts fresh chains and keeps recovering. *)
  let db4, _ = Store.Shard_db.apply r.Store.db (set_op 7) in
  Store.log_op store ~db:db4 ~op:(set_op 7) ~ctr:(r.Store.ctr + 1) ~last_user:0;
  Store.checkpoint store ~db:db4;
  let r2 = expect_recovered (Store.recover store) in
  Alcotest.(check string) "post-rollback checkpoint recoverable" (hex_root db4)
    (hex_root r2.Store.db);
  Store.close store;
  rm_rf dir

(* After every checkpoint, both the current and the previous
   generation's chains are whole on disk, and nothing else is left. *)
let test_store_delta_gc_keeps_chains () =
  let dir = fresh_dir "delta-gc" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:2 ~dir ~branching:4 ~shards:2 ~initial ())
  in
  let files info =
    List.concat_map
      (fun s -> List.map (fun c -> c.Store.cf_file) s.Store.str_chain)
      info.Store.info_streams
  in
  let prev = ref (files (inspect_ok dir)) in
  let db = ref (Store.db store) in
  for i = 0 to 99 do
    let db', _ = Store.Shard_db.apply !db (set_op i) in
    db := db';
    Store.log_op store ~db:db' ~op:(set_op i) ~ctr:(i + 1) ~last_user:0;
    let info = inspect_ok dir in
    List.iter
      (fun f ->
        Alcotest.(check bool) (f ^ " still on disk") true
          (Sys.file_exists (Filename.concat dir f)))
      (!prev @ files info);
    Alcotest.(check (list string)) "no orphans" [] info.Store.info_orphans;
    List.iter
      (fun s -> Alcotest.(check bool) (s.Store.str_name ^ " verifies") true s.Store.str_base_ok)
      info.Store.info_streams;
    if i mod 2 = 1 then prev := files info
  done;
  Store.close store;
  rm_rf dir

(* Seeded exploration: random writes, reads, removes, explicit
   checkpoints, rolled and compacted segments, honest crashes and
   crashes mid-checkpoint. Every recovery must land on the root of the
   same ops folded through [Shard_db.apply]. *)
let test_store_delta_random_crashes () =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let dir = fresh_dir (Printf.sprintf "delta-rand-%d" seed) in
      let initial = initial_files 20 in
      let store =
        expect_fresh
          (Store.create_or_open ~checkpoint_every:40 ~segment_bytes:512 ~compact_segments:2
             ~dir ~branching:4 ~shards:2 ~initial ())
      in
      let compactions0 = Obs.value "store.compactions" in
      let oracle = ref (Store.db store) and db = ref (Store.db store) and ctr = ref 0 in
      for step = 0 to 299 do
        let key = Printf.sprintf "src/file_%02d.ml" (Random.State.int rng 40) in
        let op =
          match Random.State.int rng 10 with
          | 0 | 1 -> Vo.Get key
          | 2 -> Vo.Remove key
          | _ -> Vo.Set (key, Printf.sprintf "s%d-%d" seed step)
        in
        let db', _ = Store.Shard_db.apply !db op in
        let o', _ = Store.Shard_db.apply !oracle op in
        db := db';
        oracle := o';
        incr ctr;
        Store.log_op store ~db:db' ~op ~ctr:!ctr ~last_user:0;
        Store.flush store;
        match Random.State.int rng 20 with
        | 0 -> Store.checkpoint store ~db:db'
        | 1 | 2 ->
            if Random.State.bool rng then Store.debug_partial_checkpoint store ~db:db';
            let r = expect_recovered (Store.recover store) in
            Alcotest.(check string)
              (Printf.sprintf "seed %d step %d: recovered = oracle" seed step)
              (hex_root !oracle) (hex_root r.Store.db);
            db := r.Store.db
        | _ -> ()
      done;
      Alcotest.(check bool) "segments were compacted along the way" true
        (Obs.value "store.compactions" > compactions0);
      Store.close store;
      let store2 =
        expect_reopened (Store.create_or_open ~dir ~branching:4 ~shards:2 ~initial ())
      in
      Alcotest.(check string) (Printf.sprintf "seed %d: cold reopen = oracle" seed)
        (hex_root !oracle) (hex_root (Store.db store2));
      Store.close store2;
      rm_rf dir)
    [ 1; 2; 3 ]

(* A window of reads dirties the shard (reads are logged for counter
   bookkeeping) but changes no node: its delta is one root reference. *)
let test_store_delta_read_window_tiny () =
  let dir = fresh_dir "delta-reads" in
  let initial = initial_files 20 in
  let store =
    expect_fresh
      (Store.create_or_open ~checkpoint_every:1000 ~dir ~branching:4 ~shards:1 ~initial ())
  in
  let db = Store.db store in
  List.iteri
    (fun i k -> Store.log_op store ~db ~op:(Vo.Get k) ~ctr:(i + 1) ~last_user:0)
    [ "src/file_01.ml"; "src/file_02.ml"; "src/file_03.ml" ];
  Store.checkpoint store ~db;
  Store.close store;
  (match chain_of (inspect_ok dir) "shard0" with
  | [ full; delta ] ->
      Alcotest.(check bool) "a delta was written" true delta.Store.cf_delta;
      (* 16-byte file header, shard index, framed root digest, one
         tag-2 reference. *)
      Alcotest.(check int) "delta bytes" (16 + 2 + 4 + 32 + 1 + 32) delta.Store.cf_bytes;
      Alcotest.(check bool) "far below the full snapshot" true
        (delta.Store.cf_bytes * 4 < full.Store.cf_bytes)
  | chain -> Alcotest.failf "expected a two-file chain, got %d" (List.length chain));
  let store2 = expect_reopened (Store.create_or_open ~dir ~branching:4 ~shards:1 ~initial ()) in
  Alcotest.(check string) "root unchanged" (hex_root db) (hex_root (Store.db store2));
  Store.close store2;
  rm_rf dir

(* ---- torn MANIFEST --------------------------------------------------- *)

let test_store_torn_manifest_repaired () =
  let dir = fresh_dir "torn" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  let db = apply_logged store (Store.db store) ops_script in
  Store.debug_tear_manifest ~dir ~wreck_backup:false;
  let r = expect_recovered (Store.recover_reload store) in
  Alcotest.(check string) "repaired from MANIFEST.bak, root intact"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter intact" (List.length ops_script) r.Store.ctr;
  Store.close store;
  (* The repair is durable: a later cold reopen sees a whole MANIFEST. *)
  Alcotest.(check bool) "manifest present" true (Store.manifest_exists dir);
  let store2 =
    expect_reopened (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  Alcotest.(check string) "cold reopen after repair"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest (Store.db store2)));
  Store.close store2

let test_store_torn_manifest_wrecked_fatal () =
  let dir = fresh_dir "torn-hard" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  ignore (apply_logged store (Store.db store) ops_script);
  Store.debug_tear_manifest ~dir ~wreck_backup:true;
  (match Store.recover_reload store with
  | Ok _ -> Alcotest.fail "recovery served a half-initialized shard map"
  | Error _ -> ());
  Store.close store

(* ---- resume: the daemon's restart path ------------------------------- *)

let test_store_resume_preserves_bookkeeping () =
  let dir = fresh_dir "resume" in
  let initial = initial_files 20 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:4 ~initial ())
  in
  (* Log ops as the network daemon does: tagged with their request
     origin, replies durably cached. *)
  let db =
    List.fold_left
      (fun (db, i) op ->
        let user = i mod 3 in
        Store.declare_origin store ~user ~seq:(100 + i);
        let db, _ = Store.Shard_db.apply db op in
        Store.log_op store ~db ~op ~ctr:(i + 1) ~last_user:user;
        Store.log_reply store ~user ~seq:(100 + i)
          ~payload:(Printf.sprintf "reply-%d" i);
        (db, i + 1))
      (Store.db store, 0)
      ops_script
    |> fst
  in
  let n = List.length ops_script in
  let gen = Store.generation store in
  Store.close store;
  let store2, r =
    match Store.resume ~dir () with
    | Ok x -> x
    | Error e -> Alcotest.failf "resume failed: %s" e
  in
  (* Unlike create_or_open, resume keeps the generation — clients use a
     generation regression as the rollback detector. *)
  Alcotest.(check int) "generation preserved" gen (Store.generation store2);
  Alcotest.(check string) "root preserved"
    (Crypto.Hex.encode (Store.Shard_db.root_digest db))
    (Crypto.Hex.encode (Store.Shard_db.root_digest r.Store.db));
  Alcotest.(check int) "counter preserved" n r.Store.ctr;
  (* ops_script has 8 ops over users 0,1,2: user u's last op is the
     largest i with i mod 3 = u. *)
  let expect_seq u =
    let rec last best i = if i >= n then best else last (if i mod 3 = u then i else best) (i + 1) in
    100 + last (-1) 0
  in
  Alcotest.(check (list (pair int int)))
    "per-user dedup seqs recovered"
    [ (0, expect_seq 0); (1, expect_seq 1); (2, expect_seq 2) ]
    r.Store.seqs;
  List.iter
    (fun (u, seq, payload) ->
      Alcotest.(check int) (Printf.sprintf "u%d cached seq" u) (expect_seq u) seq;
      Alcotest.(check string)
        (Printf.sprintf "u%d cached payload" u)
        (Printf.sprintf "reply-%d" (expect_seq u - 100))
        payload)
    r.Store.replies;
  Alcotest.(check int) "one cached reply per user" 3 (List.length r.Store.replies);
  (* And the resumed store keeps answering the dedup queries live. *)
  Alcotest.(check (list (pair int int))) "last_seqs live" r.Store.seqs
    (Store.last_seqs store2);
  (match Store.cached_reply store2 ~user:1 with
  | Some (seq, _) -> Alcotest.(check int) "cached_reply live" (expect_seq 1) seq
  | None -> Alcotest.fail "no cached reply for user 1");
  Store.close store2

(* ---- server crash recovery ------------------------------------------ *)

(* Satellite regression: a recovered server must not re-present
   pre-crash branch history as fresh — recovery clears it while keeping
   counter and root byte-identical. *)
let test_server_crash_clears_history () =
  let dir = fresh_dir "server-history" in
  let initial = initial_files 8 in
  let store =
    expect_fresh (Store.create_or_open ~dir ~branching:8 ~shards:1 ~initial ())
  in
  let engine = Sim.Engine.create ~measure:Message.encoded_size ~classify:Message.kind () in
  Sim.Engine.register engine (Sim.Id.User 0)
    {
      Sim.Engine.on_message = (fun ~round:_ ~src:_ _ -> ());
      on_activate = (fun ~round:_ -> ());
    };
  let server =
    Server.create ~store
      {
        Server.mode = `Plain;
        epoch_len = None;
        branching = 8;
        adversary = Adversary.Crash { at_round = 6 };
        history_cap = 64;
      }
      ~engine ~initial ~initial_root_sig:None
  in
  List.iter
    (fun i ->
      Sim.Engine.send engine ~src:(Sim.Id.User 0) ~dst:Sim.Id.Server
        (Message.Query { op = Vo.Set (Printf.sprintf "k%d" i, "v"); piggyback = [] }))
    [ 0; 1; 2 ];
  ignore (Sim.Engine.run_until engine ~max_rounds:3 (fun () -> false));
  Alcotest.(check int) "ops applied pre-crash" 3 (Server.ops_performed server);
  Alcotest.(check bool) "history non-empty pre-crash" true (Server.history_length server > 0);
  let pre_root = Server.true_root server in
  ignore (Sim.Engine.run_until engine ~max_rounds:10 (fun () -> false));
  Alcotest.(check int) "history cleared by recovery" 0 (Server.history_length server);
  Alcotest.(check string) "root byte-identical after recovery"
    (Crypto.Hex.encode pre_root)
    (Crypto.Hex.encode (Server.true_root server));
  Alcotest.(check int) "counter preserved" 3 (Server.ops_performed server);
  Alcotest.(check int) "no alarms" 0 (List.length (Sim.Engine.alarms engine))

(* ---- harness: crash adversaries end to end --------------------------- *)

let workload ?(users = 4) ?(rounds = 200) seed =
  S.generate
    {
      S.default_profile with
      S.users;
      files = 24;
      mean_think = 4.0;
      offline_probability = 0.02;
      mean_offline = 30.0;
    }
    ~seed ~rounds

let protocols k =
  [
    Harness.Protocol_1 { k };
    Harness.Protocol_2 { k; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
    Harness.Protocol_3 { epoch_len = 120 };
    Harness.Protocol_4 { announce_every = 4 };
  ]

let run_with_store ?shards ?(durability = Store.Per_op) ?segment_bytes
    ?compact_segments ~dir protocol adversary events =
  rm_rf dir;
  let setup =
    {
      (Harness.default_setup ~protocol ~users:4 ~adversary) with
      Harness.store_dir = Some dir;
      shards;
      store_durability = durability;
      store_segment_bytes = segment_bytes;
      store_compact_segments = compact_segments;
    }
  in
  Harness.run setup ~events

let test_harness_crash_transparent () =
  let events = workload "crash-clean" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-crash" in
      let o =
        run_with_store ~shards:4 ~dir protocol (Adversary.Crash { at_round = 40 }) events
      in
      Alcotest.(check int)
        (Harness.protocol_name protocol ^ ": no alarms")
        0 (List.length o.Harness.alarms);
      Alcotest.(check bool) "oracle consistent" false o.Harness.oracle.Sim.Oracle.deviated;
      Alcotest.(check int) "no transaction lost to the crash" o.Harness.issued_transactions
        o.Harness.completed_transactions;
      (match Harness.classify o with
      | `Clean -> ()
      | _ -> Alcotest.fail "honest crash must classify clean");
      rm_rf dir)
    (protocols 8)

let test_harness_rollback_crash_detected () =
  let events = workload "rollback-crash" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-rbc" in
      let o =
        run_with_store ~dir protocol (Adversary.Rollback_crash { at_round = 60 }) events
      in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ ": detected")
        true o.Harness.detected;
      Alcotest.(check (option int)) "violation round is the crash round" (Some 60)
        o.Harness.violation_round;
      (match Harness.classify o with
      | `True_alarm -> ()
      | _ -> Alcotest.fail "rollback-crash must classify as a true alarm");
      rm_rf dir)
    (protocols 8)

let test_harness_torn_manifest_repaired_quiet () =
  let events = workload "torn-clean" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-torn" in
      let o =
        run_with_store ~shards:4 ~dir protocol
          (Adversary.Torn_manifest { at_round = 40; wreck = false })
          events
      in
      Alcotest.(check int)
        (Harness.protocol_name protocol ^ ": no alarms")
        0 (List.length o.Harness.alarms);
      (match Harness.classify o with
      | `Clean -> ()
      | _ -> Alcotest.fail "repairable torn MANIFEST must classify clean");
      rm_rf dir)
    (protocols 8)

let test_harness_torn_manifest_wreck_halts () =
  let events = workload "torn-hard" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-torn-hard" in
      let o =
        run_with_store ~shards:4 ~dir protocol
          (Adversary.Torn_manifest { at_round = 40; wreck = true })
          events
      in
      Alcotest.(check bool)
        (Harness.protocol_name protocol ^ ": detected")
        true o.Harness.detected;
      Alcotest.(check bool) "recovery failure surfaced loudly" true
        (List.exists
           (fun (a : Sim.Engine.alarm_record) ->
             let n = String.length "store recovery failed" in
             String.length a.Sim.Engine.reason >= n
             && String.equal (String.sub a.Sim.Engine.reason 0 n) "store recovery failed")
           o.Harness.alarms);
      (match Harness.classify o with
      | `True_alarm -> ()
      | _ -> Alcotest.fail "wrecked MANIFEST must classify as a true alarm");
      rm_rf dir)
    (protocols 8)

(* ---- harness: crashes inside checkpoint / compaction windows ---------- *)

let test_harness_checkpoint_crash_transparent () =
  let events = workload "ckpt-crash" in
  List.iter
    (fun protocol ->
      let dir = fresh_dir "harness-ckpt-crash" in
      let o =
        run_with_store ~shards:4 ~dir protocol
          (Adversary.Checkpoint_crash { at_round = 40 })
          events
      in
      Alcotest.(check int)
        (Harness.protocol_name protocol ^ ": no alarms")
        0 (List.length o.Harness.alarms);
      Alcotest.(check bool) "oracle consistent" false o.Harness.oracle.Sim.Oracle.deviated;
      Alcotest.(check int) "no transaction lost to the crash" o.Harness.issued_transactions
        o.Harness.completed_transactions;
      (match Harness.classify o with
      | `Clean -> ()
      | _ -> Alcotest.fail "mid-checkpoint crash must classify clean");
      rm_rf dir)
    (protocols 8)

let test_harness_compact_crash_transparent () =
  List.iter
    (fun published ->
      let events =
        workload (if published then "compact-crash-late" else "compact-crash")
      in
      List.iter
        (fun protocol ->
          let dir = fresh_dir "harness-compact-crash" in
          (* Small segments + a high compaction threshold keep sealed
             segments around, so the crash lands in a real compaction
             window, not an empty one. *)
          let o =
            run_with_store ~shards:4 ~segment_bytes:256 ~compact_segments:4 ~dir
              protocol
              (Adversary.Compact_crash { at_round = 40; published })
              events
          in
          Alcotest.(check int)
            (Harness.protocol_name protocol ^ ": no alarms")
            0 (List.length o.Harness.alarms);
          Alcotest.(check bool) "oracle consistent" false
            o.Harness.oracle.Sim.Oracle.deviated;
          Alcotest.(check int) "no transaction lost to the crash"
            o.Harness.issued_transactions o.Harness.completed_transactions;
          (match Harness.classify o with
          | `Clean -> ()
          | _ -> Alcotest.fail "mid-compaction crash must classify clean");
          rm_rf dir)
        (protocols 8))
    [ false; true ]

(* ---- harness: storeless crash adversaries are refused ----------------- *)

let test_harness_storeless_crash_refused () =
  List.iter
    (fun adversary ->
      let setup =
        Harness.default_setup
          ~protocol:(Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user })
          ~users:4 ~adversary
      in
      (match Harness.validate setup with
      | Error (Harness.Store_required a) ->
          Alcotest.(check string) "names the adversary" (Adversary.name adversary)
            (Adversary.name a);
          (* The message must tell the operator what to do, not just
             what went wrong. *)
          let msg = Harness.setup_error_message (Harness.Store_required a) in
          Alcotest.(check bool) "mentions --store" true
            (let rec has i =
               i + 7 <= String.length msg
               && (String.equal (String.sub msg i 7) "--store" || has (i + 1))
             in
             has 0)
      | Error (Harness.Store_failed _) -> Alcotest.fail "wrong error"
      | Ok () -> Alcotest.fail "storeless crash adversary accepted");
      match
        Harness.run setup ~events:(workload ~rounds:20 "storeless")
      with
      | exception Harness.Setup_error (Harness.Store_required _) -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "run proceeded without a store")
    [
      Adversary.Crash { at_round = 10 };
      Adversary.Rollback_crash { at_round = 10 };
      Adversary.Torn_manifest { at_round = 10; wreck = true };
      Adversary.Checkpoint_crash { at_round = 10 };
      Adversary.Compact_crash { at_round = 10; published = false };
    ]

(* ---- harness: shard-count invariance --------------------------------- *)

let run_sharded ~shards protocol adversary events =
  let setup =
    { (Harness.default_setup ~protocol ~users:4 ~adversary) with Harness.shards = Some shards }
  in
  Harness.run setup ~events

let test_shard_count_invariance () =
  let events = workload "shard-invariance" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  List.iter
    (fun adversary ->
      let o1 = run_sharded ~shards:1 p2 adversary events in
      let o4 = run_sharded ~shards:4 p2 adversary events in
      Alcotest.(check bool)
        (Adversary.name adversary ^ ": same detection under 1 and 4 shards")
        o1.Harness.detected o4.Harness.detected;
      Alcotest.(check bool) "same classification" true
        (Harness.classify o1 = Harness.classify o4);
      Alcotest.(check bool) "same oracle verdict" o1.Harness.oracle.Sim.Oracle.deviated
        o4.Harness.oracle.Sim.Oracle.deviated)
    [
      Adversary.Honest;
      Adversary.Tamper_value { at_op = 10 };
      Adversary.Drop_update { at_op = 10 };
      Adversary.Rollback { at_op = 12; depth = 4; repeat = 1 };
    ]

let test_per_shard_scopes_in_report () =
  let events = workload "shard-scopes" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  let _o = run_sharded ~shards:4 p2 Adversary.Honest events in
  let report = Obs.Report.to_json () in
  let contains needle =
    let nh = String.length report and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub report i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "meta records the shard count" true (contains "\"shards\": \"4\"");
  Alcotest.(check bool) "per-shard scope present" true (contains "\"server.s0.ops_routed\"");
  Alcotest.(check bool) "aggregate present" true (contains "\"server.ops_routed\"")

let test_store_reports_deterministic () =
  let events = workload "store-determinism" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  let dir1 = fresh_dir "det-1" and dir2 = fresh_dir "det-2" in
  let _o1 = run_with_store ~shards:4 ~dir:dir1 p2 Adversary.Honest events in
  let report1 = Obs.Report.to_json () in
  let _o2 = run_with_store ~shards:4 ~dir:dir2 p2 Adversary.Honest events in
  let report2 = Obs.Report.to_json () in
  Alcotest.(check string) "same-seed store runs: byte-identical reports" report1 report2;
  rm_rf dir1;
  rm_rf dir2

(* Group commit batches fsyncs, not observable behaviour: the same
   seeded run must emit byte-identical reports whatever the durability
   mode (segment-header records are excluded from [store.wal.appends]
   precisely to keep this true). *)
let test_reports_deterministic_across_durability () =
  let events = workload "durability-determinism" in
  let p2 = Harness.Protocol_2 { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user } in
  let reports =
    List.map
      (fun (durability, name) ->
        let dir = fresh_dir ("det-dur-" ^ name) in
        let _o = run_with_store ~shards:4 ~durability ~dir p2 Adversary.Honest events in
        let report = Obs.Report.to_json () in
        rm_rf dir;
        (name, report))
      [ (Store.Per_op, "per-op"); (Store.Per_round, "per-round"); (Store.Every_n 16, "every-16") ]
  in
  match reports with
  | (_, baseline) :: rest ->
      List.iter
        (fun (name, report) ->
          Alcotest.(check string)
            (name ^ ": report byte-identical to per-op")
            baseline report)
        rest
  | [] -> Alcotest.fail "no durability modes ran"

let suite =
  [
    Alcotest.test_case "wal: empty log" `Quick test_wal_empty;
    Alcotest.test_case "wal: round trip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: torn tail truncated" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal: mid-log corruption fatal" `Quick test_wal_midlog_corruption;
    Alcotest.test_case "wal: corrupt final is torn" `Quick test_wal_corrupt_final_is_torn;
    Alcotest.test_case "snapshot: round trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "shard map: routing" `Quick test_shard_map_routing;
    Alcotest.test_case "shard db: 1 shard = flat tree" `Quick test_single_shard_is_flat;
    Alcotest.test_case "shard db: matches oracle" `Quick test_shard_db_matches_oracle;
    Alcotest.test_case "store: crash recovery root (pinned)" `Quick test_store_crash_recovery_root;
    Alcotest.test_case "store: recovery across checkpoints" `Quick
      test_store_recovery_across_checkpoints;
    Alcotest.test_case "store: recovery past a torn tail" `Quick test_store_recovery_torn_tail;
    Alcotest.test_case "store: stale recovery rewinds" `Quick test_store_stale_recovery_rewinds;
    Alcotest.test_case "store: reopen re-baselines" `Quick test_store_reopen_rebaselines;
    Alcotest.test_case "store: torn MANIFEST repaired" `Quick test_store_torn_manifest_repaired;
    Alcotest.test_case "store: wrecked MANIFEST fatal" `Quick
      test_store_torn_manifest_wrecked_fatal;
    Alcotest.test_case "store: resume preserves bookkeeping" `Quick
      test_store_resume_preserves_bookkeeping;
    Alcotest.test_case "store: durability modes equivalent" `Quick
      test_store_durability_modes_equivalent;
    Alcotest.test_case "store: staged tail lost on crash" `Quick
      test_store_staged_tail_lost_on_crash;
    Alcotest.test_case "store: rotation + compaction equivalence" `Quick
      test_store_rotation_compaction_equivalence;
    Alcotest.test_case "store: partial checkpoint ignored" `Quick
      test_store_partial_checkpoint_ignored;
    Alcotest.test_case "store: partial compaction recovers" `Quick
      test_store_partial_compact_recovers;
    Alcotest.test_case "store: incremental checkpoint" `Quick
      test_store_incremental_checkpoint;
    Alcotest.test_case "store: inspect reports layout" `Quick test_store_inspect_layout;
    Alcotest.test_case "store: delta chain recovery" `Quick test_store_delta_chain_recovery;
    Alcotest.test_case "store: delta damage is an error" `Quick
      test_store_delta_damage_is_an_error;
    Alcotest.test_case "store: delta stale recovery" `Quick test_store_delta_stale_recovery;
    Alcotest.test_case "store: delta gc keeps chains" `Quick test_store_delta_gc_keeps_chains;
    Alcotest.test_case "store: delta random crashes" `Quick test_store_delta_random_crashes;
    Alcotest.test_case "store: delta of a read window" `Quick
      test_store_delta_read_window_tiny;
    Alcotest.test_case "server: crash clears history" `Quick test_server_crash_clears_history;
    Alcotest.test_case "harness: crash is transparent" `Slow test_harness_crash_transparent;
    Alcotest.test_case "harness: torn MANIFEST transparent" `Slow
      test_harness_torn_manifest_repaired_quiet;
    Alcotest.test_case "harness: wrecked MANIFEST halts loudly" `Slow
      test_harness_torn_manifest_wreck_halts;
    Alcotest.test_case "harness: storeless crash refused" `Quick
      test_harness_storeless_crash_refused;
    Alcotest.test_case "harness: rollback-crash detected" `Slow
      test_harness_rollback_crash_detected;
    Alcotest.test_case "harness: shard-count invariance" `Slow test_shard_count_invariance;
    Alcotest.test_case "harness: per-shard scopes" `Slow test_per_shard_scopes_in_report;
    Alcotest.test_case "harness: checkpoint-crash transparent" `Slow
      test_harness_checkpoint_crash_transparent;
    Alcotest.test_case "harness: compact-crash transparent" `Slow
      test_harness_compact_crash_transparent;
    Alcotest.test_case "harness: store reports deterministic" `Slow
      test_store_reports_deterministic;
    Alcotest.test_case "harness: reports deterministic across durability" `Slow
      test_reports_deterministic_across_durability;
  ]
