let src = Logs.Src.create "tcvs.net.router" ~doc:"Trusted-CVS cluster router"

module Log = (val Logs.src_log src : Logs.LOG)
module Message = Tcvs.Message
module Harness = Tcvs.Harness
module Vo = Mtree.Vo
module Node = Mtree.Node

let obs_scope = Obs.Scope.v "net.router"
let c_ops = Obs.counter ~scope:obs_scope "ops_routed"
let c_subops = Obs.counter ~scope:obs_scope "subops_sent"
let c_sub_retransmits = Obs.counter ~scope:obs_scope "subop_retransmits"
let c_dedup_hits = Obs.counter ~scope:obs_scope "dedup_hits"
let c_relays = Obs.counter ~scope:obs_scope "publishes_relayed"
let c_ticks = Obs.counter ~scope:obs_scope "ticks"
let c_barriers = Obs.counter ~scope:obs_scope "barriers_committed"
let c_barrier_retries = Obs.counter ~scope:obs_scope "barrier_retries"
let c_link_reconnects = Obs.counter ~scope:obs_scope "link_reconnects"
let c_accepts = Obs.counter ~scope:obs_scope "connections_accepted"
let c_admin_scrapes = Obs.counter ~scope:obs_scope ~volatile:true "admin_scrapes"

type config = {
  listen_port : int;
  port_file : string option;
  shard_addrs : (string * int) array; (* shard i's daemon address *)
  branching : int;
  files : int;
  users : int;
  max_conns : int;
  max_frame : int;
  tick_timeout : float;
  tail_ticks : int;
  request_timeout : float; (* sub-request retransmit interval *)
  barrier_timeout : float; (* re-Prepare interval *)
  barrier_retries : int; (* re-Prepares before the wedge alarm *)
  connect_timeout : float;
  reconnect_backoff : float;
  journal : string option;
  admin_port : int option;
  admin_port_file : string option;
}

let default_config ~shard_addrs =
  {
    listen_port = 0;
    port_file = None;
    shard_addrs;
    branching = 8;
    files = 32;
    users = 4;
    max_conns = 64;
    max_frame = Codec.default_max_frame;
    tick_timeout = 0.5;
    tail_ticks = 64;
    request_timeout = 0.25;
    barrier_timeout = 0.5;
    barrier_retries = 20;
    connect_timeout = 5.0;
    reconnect_backoff = 0.1;
    journal = None;
    admin_port = None;
    admin_port_file = None;
  }

let stop_requested = ref false

(* ---- Connection plumbing (mirrors Client) ---------------------------- *)

let connect_fd ~host ~port ~timeout =
  match
    try Ok (Unix.inet_addr_of_string host)
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> Ok a
      | _ -> Error ("cannot resolve " ^ host))
  with
  | Error e -> Error e
  | Ok addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | () ->
          Unix.clear_nonblock fd;
          Ok fd
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
          match Unix.select [] [ fd ] [] timeout with
          | [], [], [] ->
              Unix.close fd;
              Error "connect timeout"
          | _ -> (
              match Unix.getsockopt_error fd with
              | None ->
                  Unix.clear_nonblock fd;
                  Ok fd
              | Some err ->
                  Unix.close fd;
                  Error (Unix.error_message err)))
      | exception Unix.Unix_error (err, _, _) ->
          Unix.close fd;
          Error (Unix.error_message err))

let await_frame conn ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    match Conn.pop conn with
    | Ok (Some frame) -> Ok (Some frame)
    | Error e -> Error (Codec.error_to_string e)
    | Ok None ->
        if Conn.eof conn then Error "connection closed"
        else if Unix.gettimeofday () > deadline then Ok None
        else begin
          Conn.flush conn;
          let slice = min 0.25 (max 0.01 (deadline -. Unix.gettimeofday ())) in
          (match
             Unix.select [ Conn.fd conn ]
               (if Conn.want_write conn then [ Conn.fd conn ] else [])
               [] slice
           with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | r, w, _ ->
              if w <> [] then Conn.flush conn;
              if r <> [] then Conn.fill conn);
          loop ()
        end
  in
  loop ()

(* ---- State ------------------------------------------------------------ *)

type session = {
  conn : Conn.t;
  peer : string;
  mutable user : int; (* -1 before Hello *)
  mutable role : Codec.role option;
  mutable said_bye : bool;
  mutable dedup_hits : int;
}

type relay = { r_msg : Message.t; r_ctx : Codec.ctx; r_pending : (int, unit) Hashtbl.t }

(* One client op moving through the cluster: fanned to its owning
   shards, composed back in strict dispatch order. *)
type rop = {
  o_user : int;
  o_seq : int; (* client-facing seq *)
  o_ctx : Codec.ctx; (* forwarded verbatim — one span end to end *)
  o_op : Vo.op;
  o_piggyback : Message.piggyback list;
  o_lockstep : bool; (* reply held until the round's Commit *)
  o_touched : int list; (* owning shards, ascending *)
  mutable o_replies : (int * Message.t) list; (* shard id → Response *)
}

(* The link to one shard daemon: a FIFO of sub-requests with exactly one
   in flight (the shard enforces a single outstanding query per link),
   retransmitted on loss and re-sent verbatim across reconnects — the
   shard's persistent dedup keeps the hop exactly-once. *)
type link = {
  l_id : int;
  l_host : string;
  l_port : int;
  l_queue : rop Queue.t;
  mutable l_conn : Conn.t option;
  mutable l_boot : string; (* "" before first contact *)
  mutable l_gen : int;
  mutable l_rseq : int; (* last sub-request seq assigned on this link *)
  mutable l_inflight : (int * rop) option;
  mutable l_sent_at : float;
  mutable l_attempts : int;
  mutable l_next_connect : float;
  mutable l_reconnects : int;
}

type barrier =
  | Idle
  | Sealing of {
      b_round : int;
      b_votes : bool array;
      mutable b_sent_at : float;
      mutable b_attempts : int;
    }

type state = {
  cfg : config;
  shard_count : int;
  boundaries : string array; (* from the full seeded key list *)
  initial_roots : string array; (* each shard's expected fresh root *)
  serial_roots : string array; (* root chain, advanced at compose time *)
  links : link array;
  boot_id : string;
  mutable sessions : session list;
  (* client-facing exactly-once state (in-memory: a router crash ends
     the session loudly via the shards' persistent dedup, never via a
     silent re-execution) *)
  vseq : (int, int) Hashtbl.t;
  reply_cache : (int, int * string) Hashtbl.t;
  outstanding : (int, int * Codec.ctx) Hashtbl.t;
  relays : (int * int, relay) Hashtbl.t;
  compose_q : rop Queue.t; (* global dispatch order *)
  held : (int * string) Queue.t; (* encoded lockstep replies awaiting Commit *)
  mutable g_ctr : int; (* composed ops — the cluster's global ctr *)
  mutable g_last_user : int;
  u_done : int array;
  u_drained : bool array;
  u_alarmed : bool array;
  mutable round : int;
  mutable ticking : bool;
  mutable tick_sent_at : float;
  mutable drain_ticks : int;
  mutable dirty : bool; (* an op was composed since the last barrier *)
  mutable barrier : barrier;
  mutable alarms : string list; (* newest first *)
  mutable session_over : bool;
  mutable ended_at : float;
  journal : Obs.Journal.t option;
}

let jot st ?user ?span ?dur_us ~ev detail =
  match st.journal with
  | Some j -> Obs.Journal.event j ?user ?span ?dur_us ~round:st.round ~ev detail
  | None -> ()

let alarm st reason =
  Log.err (fun f -> f "ALARM: %s" reason);
  jot st ~ev:"router.alarm" reason;
  st.alarms <- reason :: st.alarms

let composed_root st =
  if st.shard_count = 1 then st.serial_roots.(0)
  else Vo.compose_root st.boundaries st.serial_roots

let session_for_user st u =
  List.find_opt (fun s -> s.user = u && not (Conn.eof s.conn)) st.sessions

let lockstep s = s.role = Some Codec.Lockstep

let lockstep_joined st =
  let joined = Array.make st.cfg.users false in
  List.iter
    (fun s -> if lockstep s && s.user >= 0 then joined.(s.user) <- true)
    st.sessions;
  Array.for_all Fun.id joined

let has_role st role = List.exists (fun s -> s.role = Some role) st.sessions

(* The composed generation: the sum over shard generations, so any
   shard's recovery bumps it and the clients' monotonicity check spans
   the whole cluster. *)
let cluster_generation st =
  Array.fold_left (fun acc l -> acc + l.l_gen) 0 st.links

let welcome st =
  Codec.Welcome
    {
      w_version = Codec.protocol_version;
      w_boot_id = st.boot_id;
      w_generation = cluster_generation st;
      w_ctr = st.g_ctr;
      w_users = st.cfg.users;
      w_shards = st.shard_count;
      w_round = st.round;
      w_root = composed_root st;
    }

let reject sess code detail =
  Conn.send sess.conn (Codec.Error_frame { code; detail });
  Conn.flush sess.conn;
  Conn.close sess.conn

(* ---- Shard links ------------------------------------------------------ *)

let link_welcome_check st l (w : Codec.welcome) =
  if w.Codec.w_shards <> 1 then
    Error (Printf.sprintf "shard %d serves %d internal shards, want 1" l.l_id w.Codec.w_shards)
  else begin
    if l.l_boot = "" then begin
      (* First contact. A fresh shard store must serve its slice of
         M(D₀); a resumed one re-anchors the serial chain at its
         recovered root — the per-op VO replay verifies every hop from
         here on. *)
      if w.Codec.w_ctr = 0 && w.Codec.w_root <> st.initial_roots.(l.l_id) then
        Error (Printf.sprintf "shard %d: fresh store does not serve its M(D0) slice" l.l_id)
      else begin
        st.serial_roots.(l.l_id) <- w.Codec.w_root;
        Ok ()
      end
    end
    else if w.Codec.w_generation < l.l_gen then
      Error
        (Printf.sprintf "shard %d: store generation regressed %d -> %d" l.l_id
           l.l_gen w.Codec.w_generation)
    else begin
      if w.Codec.w_boot_id <> l.l_boot then begin
        Log.info (fun f ->
            f "shard %d restarted (boot %s -> %s)" l.l_id l.l_boot w.Codec.w_boot_id);
        (* With nothing in flight the shard must come back exactly where
           the serial chain left it — recovery is byte-exact or it is an
           alarm. With a sub-request in flight the re-sent request's
           reply (cached or Lost_reply) resolves the round trip and its
           VO replay performs this same check. *)
        if l.l_inflight = None && w.Codec.w_root <> st.serial_roots.(l.l_id) then
          Error
            (Printf.sprintf "shard %d: root diverged across restart (ctr %d)"
               l.l_id w.Codec.w_ctr)
        else Ok ()
      end
      else Ok ()
    end
  end

(* A handshake failure is [`Transient] (retry with backoff: the shard
   is down or slow) or [`Fatal] (the stores disagree about history —
   retrying cannot help, so the cluster alarms). *)
let link_handshake st l conn =
  Conn.send conn
    (Codec.Hello
       {
         Codec.h_version = Codec.protocol_version;
         h_role = Codec.Shard_link;
         h_user = l.l_id;
         h_users = st.shard_count;
         h_round = st.round;
       });
  Conn.flush conn;
  match await_frame conn ~timeout:st.cfg.connect_timeout with
  | Error e -> Error (`Transient e)
  | Ok None -> Error (`Transient "no Welcome before timeout")
  | Ok (Some (Codec.Welcome w)) -> (
      match link_welcome_check st l w with
      | Error e -> Error (`Fatal e)
      | Ok () ->
          l.l_boot <- w.Codec.w_boot_id;
          l.l_gen <- max l.l_gen w.Codec.w_generation;
          Ok ())
  | Ok (Some (Codec.Error_frame { code; detail })) ->
      Error
        (`Fatal
          (Printf.sprintf "rejected (%s): %s" (Codec.error_code_to_string code)
             detail))
  | Ok (Some f) -> Error (`Transient ("unexpected " ^ Codec.frame_kind f))

let sub_request st l (rseq, rop) =
  let sub_op = Vo.sub_op_for st.boundaries l.l_id rop.o_op in
  Codec.Request
    { seq = rseq; ctx = rop.o_ctx; msg = Message.Query { op = sub_op; piggyback = rop.o_piggyback } }

let close_link l =
  (match l.l_conn with Some c -> Conn.close c | None -> ());
  l.l_conn <- None

let connect_link st l ~now =
  l.l_next_connect <- now +. (st.cfg.reconnect_backoff *. float_of_int (1 lsl min l.l_attempts 6));
  match connect_fd ~host:l.l_host ~port:l.l_port ~timeout:st.cfg.connect_timeout with
  | Error e ->
      Log.info (fun f -> f "shard %d connect failed: %s" l.l_id e);
      l.l_attempts <- l.l_attempts + 1
  | Ok fd -> (
      let conn = Conn.create ~max_frame:st.cfg.max_frame fd in
      match link_handshake st l conn with
      | Error (`Transient e) ->
          Conn.close conn;
          l.l_attempts <- l.l_attempts + 1;
          Log.info (fun f -> f "shard %d handshake failed: %s" l.l_id e)
      | Error (`Fatal e) ->
          Conn.close conn;
          l.l_attempts <- l.l_attempts + 1;
          alarm st (Printf.sprintf "shard %d handshake: %s" l.l_id e)
      | Ok () ->
          l.l_conn <- Some conn;
          l.l_attempts <- 0;
          if l.l_reconnects > 0 then Obs.incr c_link_reconnects;
          l.l_reconnects <- l.l_reconnects + 1;
          Log.info (fun f -> f "shard %d linked (%s:%d)" l.l_id l.l_host l.l_port);
          jot st ~ev:"router.link" (Printf.sprintf "shard %d up" l.l_id);
          (* Re-offer whatever the last socket may have swallowed: the
             in-flight sub-request (same rseq — the shard's dedup keeps
             it exactly-once) and, mid-barrier, this shard's Prepare. *)
          (match l.l_inflight with
          | Some (rseq, rop) ->
              l.l_sent_at <- Unix.gettimeofday ();
              Conn.send conn (sub_request st l (rseq, rop))
          | None -> ());
          (match st.barrier with
          | Sealing b when not b.b_votes.(l.l_id) ->
              Conn.send conn (Codec.Prepare { round = b.b_round })
          | _ -> ()))

(* Send the head of each idle link's queue; retransmit a stale
   in-flight sub-request; reconnect links whose socket died. *)
let pump_links st =
  let now = Unix.gettimeofday () in
  Array.iter
    (fun l ->
      (match l.l_conn with
      | Some c when Conn.eof c ->
          Log.info (fun f -> f "shard %d link lost" l.l_id);
          close_link l
      | _ -> ());
      match l.l_conn with
      | None -> if now >= l.l_next_connect then connect_link st l ~now
      | Some conn -> (
          match l.l_inflight with
          | Some (rseq, rop) ->
              let backoff =
                st.cfg.request_timeout *. float_of_int (1 lsl min l.l_attempts 6)
              in
              if now -. l.l_sent_at >= backoff then begin
                l.l_sent_at <- now;
                l.l_attempts <- l.l_attempts + 1;
                Obs.incr c_sub_retransmits;
                Conn.send conn (sub_request st l (rseq, rop));
                (* a socket that eats this many retransmits is wedged:
                   force a fresh connection (same rseq — dedup holds) *)
                if l.l_attempts >= 8 then begin
                  Log.info (fun f -> f "shard %d wedged, reconnecting" l.l_id);
                  close_link l;
                  l.l_attempts <- 0;
                  l.l_next_connect <- now
                end
              end
          | None ->
              if not (Queue.is_empty l.l_queue) then begin
                let rop = Queue.peek l.l_queue in
                l.l_rseq <- l.l_rseq + 1;
                l.l_inflight <- Some (l.l_rseq, rop);
                l.l_sent_at <- now;
                l.l_attempts <- 0;
                Obs.incr c_subops;
                jot st ~user:rop.o_user ~span:rop.o_seq ~ev:"router.route"
                  (Printf.sprintf "shard %d seq %d" l.l_id l.l_rseq);
                Conn.send conn (sub_request st l (l.l_rseq, rop))
              end))
    st.links

(* ---- Composition ------------------------------------------------------ *)

(* Answers compose exactly as the sharded replay composes them
   ([Vo.replay_sharded]): ascending-shard Range entries concatenate;
   everything else is single-shard (or an empty [Set_many]). *)
let compose_answer (op : Vo.op) answers =
  match op with
  | Vo.Get _ | Vo.Set _ | Vo.Set_many _ | Vo.Remove _ -> (
      match answers with [] -> Vo.Updated | a :: _ -> a)
  | Vo.Range _ ->
      Vo.Entries
        (List.concat_map
           (function Vo.Entries es -> es | Vo.Value _ | Vo.Updated -> [])
           answers)

(* Verify one shard's flat proof against the serial chain and splice it
   into the composition; advances [serial_roots]. *)
let verify_part st rop i (resp : Message.t) =
  match resp with
  | Message.Response { vo; _ } -> (
      if not (Vo.is_flat vo) then
        Error (Printf.sprintf "shard %d sent a non-flat VO" i)
      else
        match Vo.apply vo (Vo.sub_op_for st.boundaries i rop.o_op) with
        | Error e ->
            Error
              (Format.asprintf "shard %d VO replay failed: %a" i Vo.pp_error e)
        | Ok (answer, old_root, new_root) ->
            if old_root <> st.serial_roots.(i) then
              Error
                (Printf.sprintf
                   "shard-root-divergence: shard %d proof starts off the serial \
                    chain (u%d seq %d)"
                   i rop.o_user rop.o_seq)
            else begin
              st.serial_roots.(i) <- new_root;
              Ok (answer, Vo.root_node vo, vo)
            end)
  | m -> Error (Printf.sprintf "shard %d answered %s, not a response" i (Message.kind m))

(* Compose the client-visible reply for the op at the head of the
   dispatch order: the owning shards' proofs plus stubs of every other
   shard's serial root — byte-identical to what one daemon with
   [--shards N] would emit for the same serialized history. *)
let compose st (rop : rop) =
  let parts = Array.map (fun r -> Node.Stub r) st.serial_roots in
  let flat = ref None in
  let verified =
    List.fold_left
      (fun acc i ->
        match acc with
        | Error _ as e -> e
        | Ok answers -> (
            match List.assoc_opt i rop.o_replies with
            | None -> Error (Printf.sprintf "shard %d reply missing at compose" i)
            | Some resp -> (
                match verify_part st rop i resp with
                | Error _ as e -> e
                | Ok (answer, part, vo) ->
                    parts.(i) <- part;
                    flat := Some vo;
                    Ok (answers @ [ answer ]))))
      (Ok []) rop.o_touched
  in
  match verified with
  | Error reason ->
      alarm st reason;
      None
  | Ok answers ->
      let vo =
        if st.shard_count = 1 then
          (* single-shard cluster: the flat proof passes through; every
             op touches shard 0 so a proof is always in hand *)
          match !flat with
          | Some v -> v
          | None -> Vo.of_node ~branching:st.cfg.branching parts.(0)
        else Vo.of_parts ~branching:st.cfg.branching ~boundaries:st.boundaries ~parts
      in
      let answer = compose_answer rop.o_op answers in
      let ctr = st.g_ctr in
      let last_user = st.g_last_user in
      st.g_ctr <- st.g_ctr + 1;
      st.g_last_user <- rop.o_user;
      st.dirty <- true;
      Some
        (Message.Response
           {
             answer;
             vo;
             ctr;
             last_user;
             root_sig = None;
             epoch = 0;
             epoch_states = [];
           })

let deliver_reply st rop frame =
  match session_for_user st rop.o_user with
  | Some sess -> Conn.send_encoded sess.conn frame
  | None -> () (* disconnected; the cached reply answers the re-request *)

(* Compose strictly in dispatch order: the head of [compose_q] may
   complete long after later single-shard ops on other links — they
   wait, so every composed VO extends one serial history. *)
let[@tcvs.lint.root "event-loop"] try_compose st =
  let rec loop () =
    match Queue.peek_opt st.compose_q with
    | Some rop when List.length rop.o_replies = List.length rop.o_touched -> (
        ignore (Queue.pop st.compose_q);
        match compose st rop with
        | None -> () (* alarmed; session teardown happens in the main loop *)
        | Some msg ->
            let payload = Codec.encode_message msg in
            Hashtbl.replace st.reply_cache rop.o_user (rop.o_seq, payload);
            (match Hashtbl.find_opt st.outstanding rop.o_user with
            | Some (s, _) when s = rop.o_seq -> Hashtbl.remove st.outstanding rop.o_user
            | _ -> ());
            Obs.incr c_ops;
            jot st ~user:rop.o_user ~span:rop.o_seq ~ev:"router.reply"
              (Message.kind msg);
            let frame = Codec.encode_reply ~seq:rop.o_seq ~ctx:rop.o_ctx ~payload in
            (* two-phase: a lockstep reply only leaves after the round's
               composed root is committed; bench replies flow freely *)
            if rop.o_lockstep then Queue.add (rop.o_user, frame) st.held
            else deliver_reply st rop frame;
            loop ())
    | _ -> ()
  in
  loop ()

(* ---- Client-facing frames --------------------------------------------- *)

let handle_hello st sess (h : Codec.hello) =
  if h.Codec.h_version <> Codec.protocol_version then
    reject sess Codec.Version_mismatch
      (Printf.sprintf "router speaks protocol %d, client sent %d"
         Codec.protocol_version h.Codec.h_version)
  else
    match h.Codec.h_role with
    | Codec.Shard_link ->
        reject sess Codec.Bad_user "a router does not accept shard links"
    | (Codec.Lockstep | Codec.Free) as role ->
        if h.Codec.h_user < 0 || h.Codec.h_user >= st.cfg.users then
          reject sess Codec.Bad_user
            (Printf.sprintf "user %d out of range [0, %d)" h.Codec.h_user
               st.cfg.users)
        else if h.Codec.h_users <> st.cfg.users then
          reject sess Codec.Bad_user
            (Printf.sprintf "client expects %d users, session has %d"
               h.Codec.h_users st.cfg.users)
        else if session_for_user st h.Codec.h_user <> None then
          reject sess Codec.Bad_user
            (Printf.sprintf "user %d is already connected" h.Codec.h_user)
        else if
          has_role st
            (match role with Codec.Lockstep -> Codec.Free | _ -> Codec.Lockstep)
        then reject sess Codec.Busy "router is serving a session of the other role"
        else begin
          sess.user <- h.Codec.h_user;
          sess.role <- Some role;
          if role = Codec.Free then begin
            Hashtbl.remove st.vseq sess.user;
            Hashtbl.remove st.reply_cache sess.user;
            Hashtbl.remove st.outstanding sess.user
          end;
          if not st.ticking then st.round <- max st.round h.Codec.h_round;
          Conn.send sess.conn (welcome st);
          Log.info (fun f ->
              f "u%d joined (%s, round %d) from %s" sess.user
                (match role with Codec.Lockstep -> "lockstep" | _ -> "free")
                h.Codec.h_round sess.peer);
          if st.ticking && role = Codec.Lockstep then
            Conn.send sess.conn (Codec.Tick { round = st.round })
        end

let enqueue_op st sess ~seq ~ctx ~op ~piggyback =
  let touched = if st.shard_count = 1 then [ 0 ] else Vo.shards_for st.boundaries op in
  let rop =
    {
      o_user = sess.user;
      o_seq = seq;
      o_ctx = ctx;
      o_op = op;
      o_piggyback = piggyback;
      o_lockstep = lockstep sess;
      o_touched = touched;
      o_replies = [];
    }
  in
  Queue.add rop st.compose_q;
  List.iter (fun i -> Queue.add rop st.links.(i).l_queue) touched

let handle_request st sess ~seq ~ctx ~msg =
  let u = sess.user in
  let last = Option.value ~default:(-1) (Hashtbl.find_opt st.vseq u) in
  match msg with
  | Message.Query { op; piggyback } ->
      if
        match Hashtbl.find_opt st.outstanding u with
        | Some (s, _) -> s = seq
        | None -> false
      then () (* in the pipeline — retransmission noise *)
      else if seq <= last then begin
        Obs.incr c_dedup_hits;
        sess.dedup_hits <- sess.dedup_hits + 1;
        jot st ~user:u ~span:seq ~ev:"router.dedup" "duplicate query";
        match Hashtbl.find_opt st.reply_cache u with
        | Some (s, payload) when s = seq -> (
            match Codec.decode_message payload with
            | Some m -> Conn.send sess.conn (Codec.Reply { seq; ctx; msg = m })
            | None ->
                Conn.send sess.conn
                  (Codec.Error_frame
                     { code = Codec.Lost_reply; detail = "cached reply undecodable" }))
        | _ ->
            Conn.send sess.conn
              (Codec.Error_frame
                 {
                   code = Codec.Lost_reply;
                   detail =
                     Printf.sprintf "request %d predates this router's memory" seq;
                 })
      end
      else if Hashtbl.mem st.outstanding u then
        Conn.send sess.conn
          (Codec.Error_frame
             {
               code = Codec.Protocol_violation;
               detail = "a second query while one is outstanding";
             })
      else begin
        Log.debug (fun f -> f "u%d: query seq %d routed (round %d)" u seq st.round);
        Hashtbl.replace st.vseq u seq;
        Hashtbl.replace st.outstanding u (seq, ctx);
        enqueue_op st sess ~seq ~ctx ~op ~piggyback
      end
  | m ->
      (* The cluster serves the plain-mode protocols; signing and token
         servers are centralized by construction. *)
      Conn.send sess.conn
        (Codec.Error_frame
           {
             code = Codec.Protocol_violation;
             detail =
               Printf.sprintf "a sharded cluster cannot serve %s requests"
                 (Message.kind m);
           })

let deliver_to st v ~src:dsrc ~sseq ~ctx msg =
  match session_for_user st v with
  | Some sv -> Conn.send sv.conn (Codec.Deliver { src = dsrc; sseq; ctx; msg })
  | None -> ()

let handle_publish st sess ~seq ~ctx ~msg =
  let u = sess.user in
  match Hashtbl.find_opt st.relays (u, seq) with
  | Some r ->
      Hashtbl.iter
        (fun v () -> deliver_to st v ~src:u ~sseq:seq ~ctx:r.r_ctx r.r_msg)
        r.r_pending
  | None ->
      let pending = Hashtbl.create 8 in
      for v = 0 to st.cfg.users - 1 do
        if v <> u then Hashtbl.replace pending v ()
      done;
      if Hashtbl.length pending = 0 then Conn.send sess.conn (Codec.Ack { seq })
      else begin
        Obs.incr c_relays;
        jot st ~user:u ~span:seq ~ev:"router.route" ("publish " ^ Message.kind msg);
        Hashtbl.replace st.relays (u, seq)
          { r_msg = msg; r_ctx = ctx; r_pending = pending };
        Hashtbl.iter (fun v () -> deliver_to st v ~src:u ~sseq:seq ~ctx msg) pending
      end

let handle_deliver_ack st sess ~psrc ~sseq =
  match Hashtbl.find_opt st.relays (psrc, sseq) with
  | None -> ()
  | Some r ->
      Hashtbl.remove r.r_pending sess.user;
      if Hashtbl.length r.r_pending = 0 then begin
        Hashtbl.remove st.relays (psrc, sseq);
        match session_for_user st psrc with
        | Some sp -> Conn.send sp.conn (Codec.Ack { seq = sseq })
        | None -> ()
      end

let[@tcvs.lint.root "event-loop"] handle_client_frame st sess frame =
  match (sess.role, frame) with
  | None, Codec.Hello h -> handle_hello st sess h
  | None, _ -> reject sess Codec.Protocol_violation "first frame must be Hello"
  | Some _, Codec.Hello _ ->
      reject sess Codec.Protocol_violation "second Hello on a connection"
  | Some _, Codec.Request { seq; ctx; msg } -> handle_request st sess ~seq ~ctx ~msg
  | Some _, Codec.Publish { seq; ctx; msg } -> handle_publish st sess ~seq ~ctx ~msg
  | Some _, Codec.Deliver_ack { src = psrc; sseq } ->
      handle_deliver_ack st sess ~psrc ~sseq
  | Some _, Codec.Tick_done { round = r; drained; alarmed } ->
      if sess.user >= 0 && r = st.round then begin
        st.u_done.(sess.user) <- r;
        st.u_drained.(sess.user) <- drained;
        st.u_alarmed.(sess.user) <- alarmed
      end
  | Some _, Codec.Bye -> sess.said_bye <- true
  | Some _, (Codec.Welcome _ | Codec.Reply _ | Codec.Deliver _ | Codec.Tick _
            | Codec.Session_end _ | Codec.Shard_root _ | Codec.Prepare _
            | Codec.Commit _) ->
      reject sess Codec.Protocol_violation "not a client-to-router frame"
  | Some _, (Codec.Ack _ | Codec.Error_frame _) -> ()

(* ---- Shard-link frames ------------------------------------------------ *)

let handle_shard_root st l ~round ~shard_id ~generation ~ctr ~root =
  if shard_id <> l.l_id then
    alarm st (Printf.sprintf "link %d voted as shard %d" l.l_id shard_id)
  else begin
    if generation < l.l_gen then
      alarm st
        (Printf.sprintf "shard %d: generation regressed %d -> %d in a vote" l.l_id
           l.l_gen generation);
    l.l_gen <- max l.l_gen generation;
    match st.barrier with
    | Sealing b when round = b.b_round && not b.b_votes.(l.l_id) ->
        (* the trust-but-verify point: the shard's sealed root must be
           exactly where the composed serial history says it is *)
        if root <> st.serial_roots.(l.l_id) then
          alarm st
            (Printf.sprintf
               "shard-root-divergence: shard %d sealed r%d off the serial chain \
                (shard ctr %d)"
               l.l_id round ctr)
        else b.b_votes.(l.l_id) <- true
    | _ ->
        Log.debug (fun f ->
            f "shard %d: stale shard_root r%d ignored" l.l_id round)
  end

let[@tcvs.lint.root "event-loop"] handle_link_frame st l frame =
  match frame with
  | Codec.Reply { seq; msg; _ } -> (
      match l.l_inflight with
      | Some (rseq, rop) when rseq = seq ->
          l.l_inflight <- None;
          l.l_attempts <- 0;
          ignore (Queue.pop l.l_queue);
          rop.o_replies <- rop.o_replies @ [ (l.l_id, msg) ]
      | _ -> Log.debug (fun f -> f "shard %d: stale reply seq %d" l.l_id seq))
  | Codec.Shard_root { round; shard_id; generation; ctr; root } ->
      handle_shard_root st l ~round ~shard_id ~generation ~ctr ~root
  | Codec.Error_frame { code = Codec.Lost_reply; detail } ->
      (* an op was executed on the shard but its effect is unknowable —
         composing any further root would be a guess *)
      alarm st (Printf.sprintf "shard %d lost a reply across a crash: %s" l.l_id detail)
  | Codec.Error_frame { code; detail } ->
      alarm st
        (Printf.sprintf "shard %d error (%s): %s" l.l_id
           (Codec.error_code_to_string code) detail)
  | Codec.Session_end _ | Codec.Bye ->
      Log.info (fun f -> f "shard %d ended the link" l.l_id);
      close_link l
  | Codec.Ack _ -> ()
  | Codec.Hello _ | Codec.Welcome _ | Codec.Request _ | Codec.Publish _
  | Codec.Deliver _ | Codec.Deliver_ack _ | Codec.Tick _ | Codec.Tick_done _
  | Codec.Prepare _ | Codec.Commit _ ->
      alarm st
        (Printf.sprintf "shard %d sent an unexpected %s" l.l_id
           (Codec.frame_kind frame))

(* ---- The round clock and the barrier ---------------------------------- *)

let[@tcvs.lint.root "event-loop"] begin_tick st =
  st.round <- st.round + 1;
  Obs.incr c_ticks;
  st.tick_sent_at <- Unix.gettimeofday ();
  Hashtbl.iter
    (fun (psrc, sseq) r ->
      Hashtbl.iter
        (fun v () -> deliver_to st v ~src:psrc ~sseq ~ctx:r.r_ctx r.r_msg)
        r.r_pending)
    st.relays;
  List.iter
    (fun s ->
      if lockstep s && s.user >= 0 then
        Conn.send s.conn (Codec.Tick { round = st.round }))
    st.sessions

let end_session st ~alarmed ~reason =
  st.session_over <- true;
  st.ended_at <- Unix.gettimeofday ();
  Log.info (fun f -> f "session over at round %d: %s" st.round reason);
  jot st ~ev:"router.end" reason;
  List.iter
    (fun s ->
      if s.user >= 0 then
        Conn.send s.conn (Codec.Session_end { round = st.round; alarmed; reason }))
    st.sessions

let tick_complete st =
  let ok = ref true in
  for u = 0 to st.cfg.users - 1 do
    if st.u_done.(u) < st.round then ok := false
  done;
  !ok

let release_held st =
  Queue.iter
    (fun (u, frame) ->
      match session_for_user st u with
      | Some sess -> Conn.send_encoded sess.conn frame
      | None -> ())
    st.held;
  Queue.clear st.held

(* After the barrier (or a clean round): alarm, drain, or tick again —
   the daemon's [finish_round] tail. *)
let post_round st =
  let any_alarm = st.alarms <> [] || Array.exists Fun.id st.u_alarmed in
  let idle =
    Hashtbl.length st.outstanding = 0
    && Hashtbl.length st.relays = 0
    && Queue.is_empty st.compose_q
  in
  let all_drained = Array.for_all Fun.id st.u_drained && idle in
  if any_alarm then
    end_session st ~alarmed:true
      ~reason:(if st.alarms <> [] then "router-alarm" else "client-alarm")
  else if all_drained then begin
    st.drain_ticks <- st.drain_ticks + 1;
    if st.drain_ticks >= st.cfg.tail_ticks then
      end_session st ~alarmed:false ~reason:"drained"
    else begin_tick st
  end
  else begin
    st.drain_ticks <- 0;
    begin_tick st
  end

let send_prepares st ~round ~missing_only votes =
  Array.iter
    (fun l ->
      if (not missing_only) || not votes.(l.l_id) then
        match l.l_conn with
        | Some conn -> Conn.send conn (Codec.Prepare { round })
        | None -> () (* offered on reconnect *))
    st.links

let start_seal st =
  jot st ~ev:"router.seal" (Printf.sprintf "prepare r%d" st.round);
  let b_votes = Array.make st.shard_count false in
  st.barrier <-
    Sealing
      { b_round = st.round; b_votes; b_sent_at = Unix.gettimeofday (); b_attempts = 0 };
  send_prepares st ~round:st.round ~missing_only:false b_votes

let commit_barrier st b_round =
  let root = composed_root st in
  Obs.incr c_barriers;
  jot st ~ev:"router.commit"
    (Printf.sprintf "r%d root %s" b_round (Crypto.Hex.encode root));
  Array.iter
    (fun l ->
      match l.l_conn with
      | Some conn -> Conn.send conn (Codec.Commit { round = b_round; root })
      | None -> ())
    st.links;
  st.barrier <- Idle;
  st.dirty <- false;
  release_held st;
  post_round st

(* Drive the lockstep round machine: called from the main loop whenever
   state may have advanced. *)
let[@tcvs.lint.root "event-loop"] drive_rounds st cfg =
  if (not st.ticking) && lockstep_joined st && st.cfg.users > 0
     && has_role st Codec.Lockstep
  then begin
    st.ticking <- true;
    Log.info (fun f ->
        f "all %d users joined — starting round clock over %d shards"
          st.cfg.users st.shard_count);
    begin_tick st
  end;
  if st.ticking then begin
    match st.barrier with
    | Sealing b ->
        if Array.for_all Fun.id b.b_votes then commit_barrier st b.b_round
        else if st.alarms <> [] then begin
          (* a divergent vote is terminal — never publish a guessed root *)
          st.barrier <- Idle;
          Queue.clear st.held;
          end_session st ~alarmed:true ~reason:"router-alarm"
        end
        else if Unix.gettimeofday () -. b.b_sent_at > cfg.barrier_timeout then begin
          b.b_attempts <- b.b_attempts + 1;
          if b.b_attempts > cfg.barrier_retries then begin
            st.barrier <- Idle;
            Queue.clear st.held;
            alarm st (Printf.sprintf "barrier-wedged: round %d never sealed" b.b_round);
            end_session st ~alarmed:true ~reason:"barrier-wedged"
          end
          else begin
            Obs.incr c_barrier_retries;
            b.b_sent_at <- Unix.gettimeofday ();
            send_prepares st ~round:b.b_round ~missing_only:true b.b_votes
          end
        end
    | Idle ->
        if tick_complete st then begin
          (* round input is complete; wait for the shard pipeline to
             drain, then seal — or skip the barrier on a clean round *)
          let inflight =
            Array.exists (fun l -> l.l_inflight <> None || not (Queue.is_empty l.l_queue))
              st.links
          in
          if (not inflight) && Queue.is_empty st.compose_q then begin
            if st.alarms <> [] then
              end_session st ~alarmed:true ~reason:"router-alarm"
            else if st.dirty then start_seal st
            else post_round st
          end
        end
        else if Unix.gettimeofday () -. st.tick_sent_at > cfg.tick_timeout then begin
          st.tick_sent_at <- Unix.gettimeofday ();
          List.iter
            (fun s ->
              if lockstep s && s.user >= 0 && st.u_done.(s.user) < st.round then
                Conn.send s.conn (Codec.Tick { round = st.round }))
            st.sessions
        end
  end
  else if st.alarms <> [] && not st.session_over then
    (* free-mode (bench) sessions have no barrier; an alarm ends them *)
    end_session st ~alarmed:true ~reason:"router-alarm"

(* ---- Admin ------------------------------------------------------------ *)

let admin_snapshot st =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"schema\": \"tcvs-router-admin/1\",\n  \"round\": %d,\n  \"ticking\": %b,\n\
    \  \"ctr\": %d,\n  \"root\": %S,\n  \"phase\": %S,\n  \"sessions\": %d,\n\
    \  \"outstanding\": %d,\n  \"compose_queue\": %d,\n  \"held_replies\": %d,\n\
    \  \"alarms\": %d,\n  \"shards\": ["
    st.round st.ticking st.g_ctr
    (Crypto.Hex.encode (composed_root st))
    (match st.barrier with Idle -> "idle" | Sealing b -> Printf.sprintf "sealing-r%d" b.b_round)
    (List.length st.sessions)
    (Hashtbl.length st.outstanding)
    (Queue.length st.compose_q) (Queue.length st.held)
    (List.length st.alarms);
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char buf ',';
      Printf.bprintf buf
        "\n    { \"shard\": %d, \"addr\": \"%s:%d\", \"connected\": %b, \
         \"generation\": %d, \"rseq\": %d, \"queued\": %d, \"inflight\": %b, \
         \"root\": %S }"
        l.l_id l.l_host l.l_port (l.l_conn <> None) l.l_gen l.l_rseq
        (Queue.length l.l_queue) (l.l_inflight <> None)
        (Crypto.Hex.encode st.serial_roots.(i)))
    st.links;
  if Array.length st.links > 0 then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n  \"registry\": ";
  Buffer.add_string buf (String.trim (Obs.Report.to_json ~volatile:true ()));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ---- Setup and main loop ---------------------------------------------- *)

let make_boot_id () =
  let raw = Printf.sprintf "router-%f-%d" (Unix.gettimeofday ()) (Unix.getpid ()) in
  let hex = Buffer.create 16 in
  String.iteri
    (fun i c ->
      if i < 8 then Buffer.add_string hex (Printf.sprintf "%02x" (Char.code c)))
    (Crypto.Sha256.digest raw);
  Buffer.contents hex

let write_port_file path port =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (string_of_int port);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* The same quantile partition every shard daemon and every single
   [--shards N] daemon computes from the seeded key list — agreement on
   the boundaries is what makes the composed root byte-identical. *)
let build_state cfg =
  let shard_count = Array.length cfg.shard_addrs in
  if shard_count < 1 then Error "router needs at least one shard address"
  else begin
    let initial = Harness.initial_files cfg.files in
    let map =
      Store.Shard_map.create ~branching:cfg.branching ~shards:shard_count
        ~keys:(List.map fst initial)
    in
    let boundaries = Store.Shard_map.boundaries map in
    let initial_roots =
      Array.init shard_count (fun i ->
          let slice = List.filter (fun (k, _) -> Store.Shard_map.route map k = i) initial in
          Store.Shard_db.root_digest
            (Store.Shard_db.create ~branching:cfg.branching ~shards:1 slice))
    in
    let links =
      Array.mapi
        (fun i (host, port) ->
          {
            l_id = i;
            l_host = host;
            l_port = port;
            l_queue = Queue.create ();
            l_conn = None;
            l_boot = "";
            l_gen = 0;
            l_rseq = 0;
            l_inflight = None;
            l_sent_at = 0.;
            l_attempts = 0;
            l_next_connect = 0.;
            l_reconnects = 0;
          })
        cfg.shard_addrs
    in
    Ok
      {
        cfg;
        shard_count;
        boundaries;
        initial_roots;
        serial_roots = Array.copy initial_roots;
        links;
        boot_id = make_boot_id ();
        sessions = [];
        vseq = Hashtbl.create 16;
        reply_cache = Hashtbl.create 16;
        outstanding = Hashtbl.create 16;
        relays = Hashtbl.create 64;
        compose_q = Queue.create ();
        held = Queue.create ();
        g_ctr = 0;
        g_last_user = -1;
        u_done = Array.make (max cfg.users 1) (-1);
        u_drained = Array.make (max cfg.users 1) false;
        u_alarmed = Array.make (max cfg.users 1) false;
        round = 0;
        ticking = false;
        tick_sent_at = 0.;
        drain_ticks = 0;
        dirty = false;
        barrier = Idle;
        alarms = [];
        session_over = false;
        ended_at = 0.;
        journal = Option.map (fun p -> Obs.Journal.open_ ~proc:"router" p) cfg.journal;
      }
  end

let[@tcvs.lint.root "event-loop"] prune_sessions st =
  let dead, live =
    List.partition (fun s -> Conn.eof s.conn || s.said_bye) st.sessions
  in
  List.iter
    (fun s ->
      if s.user >= 0 then Log.info (fun f -> f "u%d disconnected" s.user);
      Conn.close s.conn)
    dead;
  st.sessions <- live

let[@tcvs.lint.root "event-loop"] accept_pending st listen_fd =
  let rec loop () =
    match Unix.accept listen_fd with
    | fd, addr ->
        let peer =
          match addr with
          | Unix.ADDR_INET (a, p) ->
              Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | Unix.ADDR_UNIX p -> p
        in
        if List.length st.sessions >= st.cfg.max_conns then begin
          let c = Conn.create ~max_frame:st.cfg.max_frame fd in
          Conn.send c (Codec.Error_frame { code = Codec.Busy; detail = "connection limit" });
          Conn.flush c;
          Conn.close c
        end
        else begin
          Obs.incr c_accepts;
          Unix.set_nonblock fd;
          st.sessions <-
            {
              conn = Conn.create ~max_frame:st.cfg.max_frame fd;
              peer;
              user = -1;
              role = None;
              said_bye = false;
              dedup_hits = 0;
            }
            :: st.sessions
        end;
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  loop ()

let[@tcvs.lint.root "event-loop"] read_session st sess =
  Conn.fill sess.conn;
  let rec pump () =
    match Conn.pop sess.conn with
    | Ok None -> ()
    | Ok (Some frame) ->
        handle_client_frame st sess frame;
        pump ()
    | Error e ->
        Log.warn (fun f ->
            f "u%d: undecodable frame (%s) — dropping" sess.user
              (Codec.error_to_string e));
        Conn.close sess.conn
  in
  pump ()

let[@tcvs.lint.root "event-loop"] read_link st l =
  match l.l_conn with
  | None -> ()
  | Some conn ->
      Conn.fill conn;
      let rec pump () =
        match Conn.pop conn with
        | Ok None -> ()
        | Ok (Some frame) ->
            handle_link_frame st l frame;
            if l.l_conn <> None then pump ()
        | Error e ->
            Log.warn (fun f ->
                f "shard %d: undecodable frame (%s) — dropping the link" l.l_id
                  (Codec.error_to_string e));
            close_link l
      in
      pump ()

let run cfg =
  stop_requested := false;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_stop = Sys.Signal_handle (fun _ -> stop_requested := true) in
  Sys.set_signal Sys.sigterm on_stop;
  Sys.set_signal Sys.sigint on_stop;
  match build_state cfg with
  | Error e -> Error e
  | Ok st -> (
      let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      match
        Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.listen_port))
      with
      | exception Unix.Unix_error (err, _, _) ->
          Unix.close listen_fd;
          Error
            (Printf.sprintf "cannot bind 127.0.0.1:%d: %s" cfg.listen_port
               (Unix.error_message err))
      | () ->
          Unix.listen listen_fd 64;
          Unix.set_nonblock listen_fd;
          let port =
            match Unix.getsockname listen_fd with
            | Unix.ADDR_INET (_, p) -> p
            | Unix.ADDR_UNIX _ -> cfg.listen_port
          in
          Option.iter (fun path -> write_port_file path port) cfg.port_file;
          Log.app (fun f ->
              f "routing 127.0.0.1:%d over %d shards (boot %s, %d users)" port
                st.shard_count st.boot_id cfg.users);
          let admin =
            match cfg.admin_port with
            | None -> None
            | Some p -> (
                match Admin.listen ~port:p with
                | Error e ->
                    Log.err (fun f -> f "admin: %s" e);
                    None
                | Ok (a, ap) ->
                    Option.iter (fun path -> write_port_file path ap) cfg.admin_port_file;
                    Log.app (fun f -> f "admin endpoint on 127.0.0.1:%d" ap);
                    Some a)
          in
          let admin_scrape () =
            Obs.incr c_admin_scrapes;
            admin_snapshot st
          in
          let close_all () =
            List.iter (fun s -> Conn.close s.conn) st.sessions;
            Array.iter close_link st.links;
            Unix.close listen_fd;
            Option.iter Admin.close admin;
            match st.journal with Some j -> Obs.Journal.close j | None -> ()
          in
          let rec loop () =
            if !stop_requested && not st.session_over then
              end_session st ~alarmed:false ~reason:"sigterm-drain";
            prune_sessions st;
            if st.session_over then begin
              List.iter (fun s -> Conn.flush s.conn) st.sessions;
              let flushed =
                List.for_all (fun s -> Conn.pending_out s.conn = 0) st.sessions
              in
              if
                flushed || st.sessions = []
                || Unix.gettimeofday () -. st.ended_at > 2.0
              then begin
                close_all ();
                Ok ()
              end
              else select_and_continue ()
            end
            else begin
              pump_links st;
              try_compose st;
              drive_rounds st cfg;
              select_and_continue ()
            end
          and select_and_continue () =
            let rfds = listen_fd :: List.map (fun s -> Conn.fd s.conn) st.sessions in
            let rfds =
              Array.fold_left
                (fun acc l ->
                  match l.l_conn with Some c -> Conn.fd c :: acc | None -> acc)
                rfds st.links
            in
            let rfds = match admin with Some a -> Admin.fd a :: rfds | None -> rfds in
            let want_w conn acc = if Conn.want_write conn then Conn.fd conn :: acc else acc in
            let wfds = List.fold_left (fun acc s -> want_w s.conn acc) [] st.sessions in
            let wfds =
              Array.fold_left
                (fun acc l -> match l.l_conn with Some c -> want_w c acc | None -> acc)
                wfds st.links
            in
            let wfds = match admin with Some a -> Admin.wfds a @ wfds | None -> wfds in
            let readable, writable, _ =
              try Unix.select rfds wfds [] 0.05
              with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
            in
            if List.mem listen_fd readable then accept_pending st listen_fd;
            (match admin with
            | Some a ->
                if List.mem (Admin.fd a) readable then
                  Admin.accept_pending a ~snapshot:admin_scrape;
                Admin.service a
            | None -> ());
            List.iter
              (fun s -> if List.mem (Conn.fd s.conn) readable then read_session st s)
              st.sessions;
            Array.iter
              (fun l ->
                match l.l_conn with
                | Some c when List.mem (Conn.fd c) readable -> read_link st l
                | _ -> ())
              st.links;
            ignore writable;
            List.iter (fun s -> Conn.flush s.conn) st.sessions;
            Array.iter
              (fun l -> match l.l_conn with Some c -> Conn.flush c | None -> ())
              st.links;
            loop ()
          in
          loop ())
