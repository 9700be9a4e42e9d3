(* Tests for the network layer: codec round-trips for every frame and
   message constructor, strict-decode behaviour under truncation and
   bit flips (seeded, so a failure is replayable), frame-size caps, and
   a live loopback handshake against a forked daemon — wrong protocol
   version must be rejected with a typed error frame, a correct Hello
   must be welcomed. *)

module Codec = Net.Codec
module Conn = Net.Conn
module M = Tcvs.Message
module T = Mtree.Merkle_btree
module Vo = Mtree.Vo

let rng = Crypto.Prng.create ~seed:"test-net"

let digest c = String.make 32 c

let sample_vo =
  let tree =
    List.fold_left
      (fun t i ->
        T.set t ~key:(Printf.sprintf "file-%02d" i) ~value:(Printf.sprintf "v%d" i))
      (T.create ())
      (List.init 8 Fun.id)
  in
  Vo.generate tree (Vo.Get "file-03")

let sample_backup =
  {
    M.backup_user = 2;
    backup_epoch = 7;
    sigma = digest 's';
    last = digest 'l';
    backup_gctr = 41;
    backup_signature = digest 'g';
  }

let sample_record =
  {
    M.token_user = 1;
    token_ctr = 9;
    root = digest 'r';
    op_digest = digest 'o';
    prev_digest = digest 'p';
    token_signature = digest 't';
  }

(* At least one message per constructor, with option/list fields
   exercised both empty and populated. *)
let sample_messages =
  [
    M.Query { op = Vo.Get "file-03"; piggyback = [] };
    M.Query
      {
        op = Vo.Set ("file-01", "new-contents");
        piggyback = [ M.Backup sample_backup; M.Request_states { epochs = [ 1; 2; 5 ] } ];
      };
    M.Query { op = Vo.Set_many [ ("a", "1"); ("b", "2") ]; piggyback = [] };
    M.Query { op = Vo.Remove "file-07"; piggyback = [] };
    M.Query { op = Vo.Range ("file-00", "file-04"); piggyback = [] };
    M.Root_signature { signer = 3; ctr = 12; signature = digest 'x' };
    M.Token_take_turn { op = Some (Vo.Set ("k", "v")); record = sample_record };
    M.Token_take_turn { op = None; record = sample_record };
    M.Response
      {
        answer = Vo.Value (Some "v3");
        vo = sample_vo;
        ctr = 12;
        last_user = 2;
        root_sig = Some (digest 'q');
        epoch = 3;
        epoch_states = [ (2, [ sample_backup ]); (3, []) ];
      };
    M.Response
      {
        answer = Vo.Updated;
        vo = sample_vo;
        ctr = 0;
        last_user = -1;
        root_sig = None;
        epoch = 0;
        epoch_states = [];
      };
    M.Response
      {
        answer = Vo.Entries [ ("file-00", "v0"); ("file-01", "v1") ];
        vo = sample_vo;
        ctr = 5;
        last_user = 0;
        root_sig = None;
        epoch = 0;
        epoch_states = [];
      };
    M.Token_state { record = Some sample_record; vo = sample_vo };
    M.Token_state { record = None; vo = sample_vo };
    M.Sync_begin { initiator = 0 };
    M.Sync_count { reporter = 1; lctr = 17 };
    M.Sync_registers { reporter = 2; sigma = digest 's'; last = Some (digest 'l'); gctr = 8 };
    M.Sync_registers { reporter = 3; sigma = digest 's'; last = None; gctr = 0 };
    M.Sync_verdict { reporter = 0; success = false };
  ]

(* Every frame constructor; payload-bearing frames get a spread of the
   messages above. *)
let sample_frames =
  let nth_msg i = List.nth sample_messages (i mod List.length sample_messages) in
  [
    Codec.Hello
      { h_version = Codec.protocol_version; h_role = Lockstep; h_user = 2; h_users = 4; h_round = 0 };
    Codec.Hello
      { h_version = Codec.protocol_version; h_role = Free; h_user = 0; h_users = 1; h_round = 33 };
    Codec.Hello
      (* a router's shard-link handshake: h_user is the shard id,
         h_users the cluster width *)
      { h_version = Codec.protocol_version; h_role = Shard_link; h_user = 1; h_users = 4; h_round = 9 };
    Codec.Welcome
      {
        w_version = Codec.protocol_version;
        w_boot_id = "boot-0123456789abcdef";
        w_generation = 4;
        w_ctr = 129;
        w_users = 4;
        w_shards = 4;
        w_round = 57;
        w_root = digest 'm';
      };
    Codec.Request
      { seq = 1; ctx = { x_round = 0; x_user = 2; x_span = 1 }; msg = nth_msg 0 };
    Codec.Request
      {
        seq = 4096;
        ctx = { x_round = 99; x_user = 0; x_span = 4096 };
        msg = nth_msg 1;
      };
    Codec.Publish
      { seq = 7; ctx = { x_round = 3; x_user = 1; x_span = 7 }; msg = nth_msg 13 };
    Codec.Ack { seq = 7 };
    Codec.Reply
      { seq = 1; ctx = { x_round = 1; x_user = 2; x_span = 1 }; msg = nth_msg 8 };
    Codec.Reply
      (* x_user = -1: an unattributable reply survives the codec *)
      { seq = 2; ctx = { x_round = 0; x_user = -1; x_span = 2 }; msg = nth_msg 9 };
    Codec.Deliver
      {
        src = 3;
        sseq = 2;
        ctx = { x_round = 12; x_user = 3; x_span = 2 };
        msg = nth_msg 15;
      };
    Codec.Deliver_ack { src = 3; sseq = 2 };
    Codec.Tick { round = 12 };
    Codec.Tick_done { round = 12; drained = false; alarmed = false };
    Codec.Tick_done { round = 13; drained = true; alarmed = true };
    Codec.Session_end { round = 400; alarmed = true; reason = "protocol-2 sync failed" };
    Codec.Error_frame { code = Version_mismatch; detail = "speak v1" };
    Codec.Error_frame { code = Bad_user; detail = "slot taken" };
    Codec.Error_frame { code = Busy; detail = "" };
    Codec.Error_frame { code = Lost_reply; detail = "seq 9" };
    Codec.Error_frame { code = Protocol_violation; detail = "Request before Hello" };
    Codec.Bye;
    Codec.Prepare { round = 57 };
    Codec.Shard_root
      { round = 57; shard_id = 3; generation = 2; ctr = 4099; root = digest 'z' };
    Codec.Shard_root
      { round = 0; shard_id = 0; generation = 0; ctr = 0; root = digest '0' };
    Codec.Commit { round = 57; root = digest 'c' };
  ]

(* Vo.t is abstract, so frame equality is checked through the codec
   itself: decode must succeed and re-encode to the identical bytes. *)
let check_roundtrip frame =
  let bytes = Codec.encode_frame frame in
  match Codec.decode_frame bytes with
  | Error e ->
      Alcotest.failf "%s does not decode: %s" (Codec.frame_kind frame)
        (Codec.error_to_string e)
  | Ok decoded ->
      Alcotest.(check string)
        (Printf.sprintf "%s kind preserved" (Codec.frame_kind frame))
        (Codec.frame_kind frame) (Codec.frame_kind decoded);
      Alcotest.(check string)
        (Printf.sprintf "%s re-encodes identically" (Codec.frame_kind frame))
        bytes
        (Codec.encode_frame decoded)

let test_frame_roundtrips () = List.iter check_roundtrip sample_frames

let test_message_roundtrips () =
  List.iter
    (fun msg ->
      let bytes = Codec.encode_message msg in
      match Codec.decode_message bytes with
      | None -> Alcotest.failf "%s does not decode" (M.kind msg)
      | Some decoded ->
          Alcotest.(check string)
            (Printf.sprintf "%s kind preserved" (M.kind msg))
            (M.kind msg) (M.kind decoded);
          Alcotest.(check string)
            (Printf.sprintf "%s re-encodes identically" (M.kind msg))
            bytes
            (Codec.encode_message decoded))
    sample_messages

(* A server frames its cached reply payload directly; the bytes must be
   exactly the Reply frame encoded from the message, for every message
   shape and for both ctx shapes the sample frames carry. *)
let test_encoded_reply_identical () =
  List.iter
    (fun msg ->
      List.iter
        (fun (seq, ctx) ->
          Alcotest.(check string)
            (Printf.sprintf "%s reply seq %d framed from its payload" (M.kind msg) seq)
            (Codec.encode_frame (Codec.Reply { seq; ctx; msg }))
            (Codec.encode_reply ~seq ~ctx ~payload:(Codec.encode_message msg)))
        [ (1, { Codec.x_round = 1; x_user = 2; x_span = 1 });
          (70000, { Codec.x_round = 0; x_user = -1; x_span = 70000 }) ])
    sample_messages

(* ---- strict decoding under damage ------------------------------------- *)

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s decoded successfully" what
  | Error (_ : Codec.error) -> ()

let test_truncation_rejected () =
  List.iter
    (fun frame ->
      let bytes = Codec.encode_frame frame in
      for len = 0 to String.length bytes - 1 do
        expect_error
          (Printf.sprintf "%s truncated to %d bytes" (Codec.frame_kind frame) len)
          (Codec.decode_frame (String.sub bytes 0 len))
      done)
    sample_frames

let flip_bit s pos bit =
  let b = Bytes.of_string s in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
  Bytes.to_string b

(* Any single-bit flip must be caught: magic flips as Bad_magic, length
   flips as a length/size error, checksum and body flips as
   Bad_checksum. Positions come from the seeded PRNG, so a failure
   names a replayable (frame, position, bit). *)
let test_bit_flips_rejected () =
  List.iter
    (fun frame ->
      let bytes = Codec.encode_frame frame in
      for _ = 1 to 64 do
        let pos = Crypto.Prng.int rng (String.length bytes) in
        let bit = Crypto.Prng.int rng 8 in
        expect_error
          (Printf.sprintf "%s with bit %d of byte %d flipped" (Codec.frame_kind frame)
             bit pos)
          (Codec.decode_frame (flip_bit bytes pos bit))
      done)
    sample_frames

let test_oversized_rejected () =
  let frame =
    Codec.Request
      {
        seq = 1;
        ctx = { x_round = 0; x_user = 0; x_span = 1 };
        msg = List.hd sample_messages;
      }
  in
  let bytes = Codec.encode_frame frame in
  let body_len = String.length bytes - Codec.header_len in
  (match Codec.decode_frame ~max_frame:(body_len - 1) bytes with
  | Error (Codec.Oversized n) -> Alcotest.(check int) "announced length" body_len n
  | Error e -> Alcotest.failf "expected Oversized, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized frame decoded");
  (* The header alone is enough to refuse — a reader never buffers an
     oversized body. *)
  match
    Codec.decode_header ~max_frame:(body_len - 1)
      (String.sub bytes 0 Codec.header_len)
  with
  | Error (Codec.Oversized _) -> ()
  | Error e -> Alcotest.failf "expected Oversized, got %s" (Codec.error_to_string e)
  | Ok _ -> Alcotest.fail "oversized header accepted"

let test_trailing_bytes_rejected () =
  let bytes = Codec.encode_frame Codec.Bye ^ "x" in
  expect_error "frame with trailing byte" (Codec.decode_frame bytes)

(* ---- live handshake against a forked daemon --------------------------- *)

let wait_port_file path =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let port = int_of_string (String.trim (input_line ic)) in
      close_in ic;
      port
    end
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "daemon did not write its port file"
    else begin
      ignore (Unix.select [] [] [] 0.02);
      loop ()
    end
  in
  loop ()

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Conn.create fd

let await_frame conn =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec loop () =
    Conn.flush conn;
    match Conn.pop conn with
    | Ok (Some frame) -> frame
    | Error e -> Alcotest.failf "undecodable frame: %s" (Codec.error_to_string e)
    | Ok None ->
        if Conn.eof conn then Alcotest.fail "daemon closed the connection"
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "timed out waiting for the daemon's reply"
        else begin
          ignore (Unix.select [ Conn.fd conn ] [] [] 0.2);
          Conn.fill conn;
          loop ()
        end
  in
  loop ()

let with_daemon f =
  let dir = Filename.temp_file "tcvs-net-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let port_file = Filename.concat dir "port" in
  match Unix.fork () with
  | 0 ->
      (* Child: serve until killed. Never return into alcotest. *)
      (try
         ignore
           (Net.Daemon.run
              {
                Net.Daemon.default_config with
                port_file = Some port_file;
                users = 2;
              })
       with _ -> ());
      Unix._exit 0
  | pid ->
      let finally () =
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
      in
      Fun.protect ~finally (fun () -> f (wait_port_file port_file))

let hello ?(version = Codec.protocol_version) ?(user = 0) ?(users = 2) () =
  Codec.Hello { h_version = version; h_role = Free; h_user = user; h_users = users; h_round = 0 }

let test_handshake () =
  with_daemon (fun port ->
      (* Wrong protocol version: typed rejection, not a hangup. *)
      let c1 = connect port in
      Conn.send c1 (hello ~version:(Codec.protocol_version + 1) ());
      (match await_frame c1 with
      | Codec.Error_frame { code = Codec.Version_mismatch; _ } -> ()
      | f -> Alcotest.failf "expected version-mismatch error, got %s" (Codec.frame_kind f));
      Conn.close c1;
      (* Out-of-range user id. *)
      let c2 = connect port in
      Conn.send c2 (hello ~user:7 ());
      (match await_frame c2 with
      | Codec.Error_frame { code = Codec.Bad_user; _ } -> ()
      | f -> Alcotest.failf "expected bad-user error, got %s" (Codec.frame_kind f));
      Conn.close c2;
      (* Correct Hello: Welcome carrying the daemon's version and shape. *)
      let c3 = connect port in
      Conn.send c3 (hello ());
      (match await_frame c3 with
      | Codec.Welcome w ->
          Alcotest.(check int) "welcome version" Codec.protocol_version w.Codec.w_version;
          Alcotest.(check int) "welcome users" 2 w.Codec.w_users;
          Alcotest.(check int) "fresh store ctr" 0 w.Codec.w_ctr;
          Alcotest.(check int) "root digest is raw 32 bytes" 32
            (String.length w.Codec.w_root)
      | f -> Alcotest.failf "expected Welcome, got %s" (Codec.frame_kind f));
      Conn.send c3 Codec.Bye;
      Conn.flush c3;
      Conn.close c3)

let suite =
  [
    Alcotest.test_case "codec: frame round-trips" `Quick test_frame_roundtrips;
    Alcotest.test_case "codec: message round-trips" `Quick test_message_roundtrips;
    Alcotest.test_case "codec: encoded reply identical" `Quick test_encoded_reply_identical;
    Alcotest.test_case "codec: truncation rejected" `Quick test_truncation_rejected;
    Alcotest.test_case "codec: bit flips rejected" `Quick test_bit_flips_rejected;
    Alcotest.test_case "codec: oversized rejected" `Quick test_oversized_rejected;
    Alcotest.test_case "codec: trailing bytes rejected" `Quick test_trailing_bytes_rejected;
    Alcotest.test_case "handshake: version and user checks" `Quick test_handshake;
  ]
