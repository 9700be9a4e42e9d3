let src = Logs.Src.create "tcvs.net.daemon" ~doc:"Trusted-CVS TCP daemon"

module Log = (val Logs.src_log src : Logs.LOG)
module Message = Tcvs.Message
module Harness = Tcvs.Harness
module Server = Tcvs.Server
module Adversary = Tcvs.Adversary

let obs_scope = Obs.Scope.v "net.daemon"
let c_requests = Obs.counter ~scope:obs_scope "requests_executed"
let c_dedup_hits = Obs.counter ~scope:obs_scope "dedup_hits"
let c_lost_replies = Obs.counter ~scope:obs_scope "lost_replies"
let c_relays = Obs.counter ~scope:obs_scope "publishes_relayed"
let c_ticks = Obs.counter ~scope:obs_scope "ticks"
let c_accepts = Obs.counter ~scope:obs_scope "connections_accepted"

(* Scrape counts and round wall-clock latency are volatile: readable
   live through the admin endpoint, never in the deterministic report. *)
let c_admin_scrapes = Obs.counter ~scope:obs_scope ~volatile:true "admin_scrapes"
let h_round_us = Obs.histogram ~scope:obs_scope ~volatile:true "round_us"

type config = {
  listen_port : int;
  port_file : string option;
  store_dir : string option;
  shards : int;
  branching : int;
  files : int;
  protocol : Harness.protocol;
  users : int;
  seed : string;
  adversary : Adversary.t;
  max_conns : int;
  max_frame : int;
  tick_timeout : float;
  tail_ticks : int;
  checkpoint_every : int;
  durability : Store.durability;
  journal : string option; (* JSONL span journal path *)
  admin_port : int option; (* read-only admin socket; [Some 0] = ephemeral *)
  admin_port_file : string option;
  (* Cluster shard mode: [Some i] serves only shard [i] of a
     [shard_count]-way partition of the key space — a 1-shard store
     over the keys the cluster map routes to shard [i], accepting a
     single [Shard_link] connection from the router. *)
  shard_id : int option;
  shard_count : int;
}

let default_config =
  {
    listen_port = 0;
    port_file = None;
    store_dir = None;
    shards = 1;
    branching = 8;
    files = 32;
    protocol = Harness.Protocol_2
        { k = 8; tag_mode = `Tagged; check_gctr = true; sync_trigger = `Per_user };
    users = 4;
    seed = "net-session";
    adversary = Adversary.Honest;
    max_conns = 64;
    max_frame = Codec.default_max_frame;
    tick_timeout = 0.5;
    tail_ticks = 64;
    checkpoint_every = 64;
    (* Per_op keeps kill -9 at any instant loss-free for acknowledged
       requests — the at-most-once guarantee the smoke tests pin.
       Per_round trades that window for one fsync per tick. *)
    durability = Store.Per_op;
    journal = None;
    admin_port = None;
    admin_port_file = None;
    shard_id = None;
    shard_count = 1;
  }

let stop_requested = ref false

type session = {
  conn : Conn.t;
  peer : string;
  mutable user : int; (* -1 before Hello *)
  mutable role : Codec.role option;
  mutable said_bye : bool;
  mutable dedup_hits : int; (* per-connection, for the admin snapshot *)
}

type relay = { r_msg : Message.t; r_ctx : Codec.ctx; r_pending : (int, unit) Hashtbl.t }

type state = {
  cfg : config;
  engine : Message.t Sim.Engine.t;
  server : Server.t;
  store : Store.t option;
  boot_id : string;
  outbox : (int * Message.t) Queue.t; (* server→user messages captured by stubs *)
  mutable sessions : session list;
  vseq : (int, int) Hashtbl.t; (* per-user highest injected request seq *)
  reply_cache : (int, int * string) Hashtbl.t; (* user → (seq, encoded reply) *)
  (* user → injected query (seq, trace ctx) awaiting reply; the ctx is
     echoed verbatim on the Reply so the op keeps one span id end to end *)
  outstanding : (int, int * Codec.ctx) Hashtbl.t;
  relays : (int * int, relay) Hashtbl.t; (* (src, sseq) → broadcast relay state *)
  u_done : int array; (* per-user last Tick_done round *)
  u_drained : bool array;
  u_alarmed : bool array;
  mutable round : int;
  mutable ticking : bool;
  mutable tick_sent_at : float;
  mutable drain_ticks : int;
  mutable free_pending : bool; (* a free-role query awaits execution *)
  mutable session_over : bool;
  mutable ended_at : float;
  journal : Obs.Journal.t option;
}

let jot st ?user ?span ?dur_us ~ev detail =
  match st.journal with
  | Some j -> Obs.Journal.event j ?user ?span ?dur_us ~round:st.round ~ev detail
  | None -> ()

(* In shard mode the op's span belongs to the originating client, not
   to the router's link seq: journal under the forwarded trace context
   (ids and round) so `trace-join` threads client → router → shard
   into one span in the client's round. *)
let jot_fwd st ~user ~seq ~(ctx : Codec.ctx) ~ev detail =
  match st.journal with
  | None -> ()
  | Some j ->
      if st.cfg.shard_id <> None && ctx.Codec.x_user >= 0 then
        Obs.Journal.event j ~user:ctx.Codec.x_user ~span:ctx.Codec.x_span
          ~round:ctx.Codec.x_round ~ev detail
      else Obs.Journal.event j ~user ~span:seq ~round:st.round ~ev detail

let mode_of_protocol = function
  | Harness.Protocol_1 _ -> (`Signed, None)
  | Harness.Protocol_2 _ | Harness.Protocol_4 _ | Harness.Unverified -> (`Plain, None)
  | Harness.Protocol_3 { epoch_len } -> (`Plain, Some epoch_len)
  | Harness.Token_baseline _ -> (`Token, None)

let session_for_user st u =
  List.find_opt (fun s -> s.user = u && not (Conn.eof s.conn)) st.sessions

let lockstep s = s.role = Some Codec.Lockstep

let lockstep_joined st =
  let joined = Array.make st.cfg.users false in
  List.iter (fun s -> if lockstep s && s.user >= 0 then joined.(s.user) <- true) st.sessions;
  Array.for_all Fun.id joined

let has_role st role =
  List.exists (fun s -> s.role = Some role) st.sessions

let welcome st =
  Codec.Welcome
    {
      w_version = Codec.protocol_version;
      w_boot_id = st.boot_id;
      w_generation = (match st.store with Some s -> Store.generation s | None -> 0);
      w_ctr = Server.ops_performed st.server;
      w_users = st.cfg.users;
      w_shards = st.cfg.shards;
      w_round = st.round;
      w_root = Server.true_root st.server;
    }

let reject sess code detail =
  Conn.send sess.conn (Codec.Error_frame { code; detail });
  Conn.flush sess.conn;
  Conn.close sess.conn

(* ---- Reply capture --------------------------------------------------- *)

let[@tcvs.lint.root "event-loop"] drain_outbox st =
  while not (Queue.is_empty st.outbox) do
    let u, msg = Queue.pop st.outbox in
    match Hashtbl.find_opt st.outstanding u with
    | Some (seq, ctx) -> (
        Hashtbl.remove st.outstanding u;
        let payload = Codec.encode_message msg in
        Hashtbl.replace st.reply_cache u (seq, payload);
        (match st.store with
        | Some s -> Store.log_reply s ~user:u ~seq ~payload
        | None -> ());
        Obs.incr c_requests;
        Log.debug (fun f -> f "u%d: reply for seq %d" u seq);
        jot_fwd st ~user:u ~seq ~ctx ~ev:"daemon.reply" (Message.kind msg);
        match session_for_user st u with
        | Some sess -> Conn.send_encoded sess.conn (Codec.encode_reply ~seq ~ctx ~payload)
        | None -> () (* disconnected; the cached reply answers the re-request *))
    | None ->
        Log.warn (fun f -> f "response for u%d with no outstanding request" u)
  done

(* ---- Frame handling -------------------------------------------------- *)

(* The router's Hello names the shard it expects ([h_user] = shard id)
   and the cluster width ([h_users] = shard count) — miswired
   deployments fail the handshake instead of serving the wrong keys.
   Unlike [Free], the dedup state survives a shard-link handshake:
   exactly-once must hold across router reconnects and shard crashes. *)
let handle_shard_hello st sess (h : Codec.hello) ~my_shard =
  if h.Codec.h_user <> my_shard then
    reject sess Codec.Bad_user
      (Printf.sprintf "router expects shard %d, this daemon serves shard %d"
         h.Codec.h_user my_shard)
  else if h.Codec.h_users <> st.cfg.shard_count then
    reject sess Codec.Bad_user
      (Printf.sprintf "router expects %d shards, this daemon is 1 of %d"
         h.Codec.h_users st.cfg.shard_count)
  else if session_for_user st 0 <> None then
    reject sess Codec.Bad_user "a router is already connected"
  else begin
    sess.user <- 0;
    sess.role <- Some Codec.Shard_link;
    Conn.send sess.conn (welcome st);
    Log.info (fun f ->
        f "router linked shard %d (round %d) from %s" my_shard h.Codec.h_round
          sess.peer)
  end

let handle_hello st sess (h : Codec.hello) =
  if h.Codec.h_version <> Codec.protocol_version then
    reject sess Codec.Version_mismatch
      (Printf.sprintf "server speaks protocol %d, client sent %d"
         Codec.protocol_version h.Codec.h_version)
  else
    match (h.Codec.h_role, st.cfg.shard_id) with
    | Codec.Shard_link, None ->
        reject sess Codec.Bad_user "not a shard daemon (no --shard-id)"
    | Codec.Shard_link, Some my_shard -> handle_shard_hello st sess h ~my_shard
    | (Codec.Lockstep | Codec.Free), Some _ ->
        reject sess Codec.Bad_user
          "shard daemon accepts only shard-link connections (use the router)"
    | ((Codec.Lockstep | Codec.Free) as role), None ->
        if h.Codec.h_user < 0 || h.Codec.h_user >= st.cfg.users then
          reject sess Codec.Bad_user
            (Printf.sprintf "user %d out of range [0, %d)" h.Codec.h_user st.cfg.users)
        else if h.Codec.h_users <> st.cfg.users then
          reject sess Codec.Bad_user
            (Printf.sprintf "client expects %d users, session has %d" h.Codec.h_users
               st.cfg.users)
        else if session_for_user st h.Codec.h_user <> None then
          reject sess Codec.Bad_user
            (Printf.sprintf "user %d is already connected" h.Codec.h_user)
        else if
          (* one daemon serves one kind of session at a time *)
          has_role st (match role with Codec.Lockstep -> Codec.Free | _ -> Codec.Lockstep)
        then reject sess Codec.Busy "daemon is serving a session of the other role"
        else begin
          sess.user <- h.Codec.h_user;
          sess.role <- Some role;
          (* free connections are independent workloads, not resumed sessions:
             a fresh one restarts its seq space *)
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
          (* a reconnect mid-round: let the client catch up immediately *)
          if st.ticking && role = Codec.Lockstep then
            Conn.send sess.conn (Codec.Tick { round = st.round })
        end

let handle_request st sess ~seq ~ctx ~msg =
  let u = sess.user in
  let last = Option.value ~default:(-1) (Hashtbl.find_opt st.vseq u) in
  match msg with
  | Message.Query _ ->
      if
        match Hashtbl.find_opt st.outstanding u with
        | Some (s, _) -> s = seq
        | None -> false
      then () (* injected, reply still being computed — retransmission noise *)
      else if seq <= last then begin
        Obs.incr c_dedup_hits;
        sess.dedup_hits <- sess.dedup_hits + 1;
        jot_fwd st ~user:u ~seq ~ctx ~ev:"daemon.dedup" "duplicate query";
        Log.debug (fun f -> f "u%d: duplicate query seq %d, resending reply" u seq);
        match Hashtbl.find_opt st.reply_cache u with
        | Some (s, payload) when s = seq -> (
            match Codec.decode_message payload with
            | Some m -> Conn.send sess.conn (Codec.Reply { seq; ctx; msg = m })
            | None ->
                Obs.incr c_lost_replies;
                Conn.send sess.conn
                  (Codec.Error_frame
                     { code = Codec.Lost_reply; detail = "cached reply undecodable" }))
        | _ ->
            (* The at-most-once residue: the op's WAL record survived a
               crash but the reply cache write did not. Never re-execute
               — surface it loudly and let the client alarm. *)
            Obs.incr c_lost_replies;
            Conn.send sess.conn
              (Codec.Error_frame
                 {
                   code = Codec.Lost_reply;
                   detail =
                     Printf.sprintf
                       "request %d was executed before a crash but its reply was \
                        lost"
                       seq;
                 })
      end
      else if Hashtbl.mem st.outstanding u then begin
        Log.debug (fun f ->
            f "u%d: query seq %d while seq %d outstanding" u seq
              (match Hashtbl.find_opt st.outstanding u with
              | Some (s, _) -> s
              | None -> -1));
        Conn.send sess.conn
          (Codec.Error_frame
             {
               code = Codec.Protocol_violation;
               detail = "a second query while one is outstanding";
             })
      end
      else begin
        Log.debug (fun f -> f "u%d: query seq %d injected (round %d)" u seq st.round);
        jot_fwd st ~user:u ~seq ~ctx ~ev:"daemon.dispatch" (Message.kind msg);
        Hashtbl.replace st.vseq u seq;
        (match st.store with
        | Some s -> Store.declare_origin s ~user:u ~seq
        | None -> ());
        Hashtbl.replace st.outstanding u (seq, ctx);
        Sim.Engine.send st.engine ~src:(Sim.Id.User u) ~dst:Sim.Id.Server msg;
        (* free and shard-link requests execute on arrival — no round clock *)
        match sess.role with
        | Some (Codec.Free | Codec.Shard_link) -> st.free_pending <- true
        | _ -> ()
      end
  | Message.Root_signature _ | Message.Token_take_turn _ ->
      (* At-least-once is safe here: the server ignores a signature it is
         not waiting for, so the ack can race a retransmission. *)
      if seq > last then begin
        jot st ~user:u ~span:seq ~ev:"daemon.dispatch" (Message.kind msg);
        Hashtbl.replace st.vseq u seq;
        Sim.Engine.send st.engine ~src:(Sim.Id.User u) ~dst:Sim.Id.Server msg
      end;
      Conn.send sess.conn (Codec.Ack { seq })
  | _ ->
      Conn.send sess.conn
        (Codec.Error_frame
           {
             code = Codec.Protocol_violation;
             detail = "request carries a server-to-user message";
           })

let deliver_to st v ~src ~sseq ~ctx msg =
  match session_for_user st v with
  | Some sv -> Conn.send sv.conn (Codec.Deliver { src; sseq; ctx; msg })
  | None -> ()

let handle_publish st sess ~seq ~ctx ~msg =
  let u = sess.user in
  match Hashtbl.find_opt st.relays (u, seq) with
  | Some r ->
      (* duplicate Publish: the publisher has not seen our Ack yet.
         Re-deliver with the original ctx so the span id stays stable. *)
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
        jot st ~user:u ~span:seq ~ev:"daemon.dispatch" ("publish " ^ Message.kind msg);
        Hashtbl.replace st.relays (u, seq) { r_msg = msg; r_ctx = ctx; r_pending = pending };
        Hashtbl.iter (fun v () -> deliver_to st v ~src:u ~sseq:seq ~ctx msg) pending
      end

(* Execute injected-but-unexecuted requests now. Free and shard-link
   requests normally execute from the main loop; a Prepare arriving in
   the same read burst as a (duplicate) request must never seal a round
   with work still staged. *)
let[@tcvs.lint.root "event-loop"] execute_pending st =
  if st.free_pending then begin
    st.free_pending <- false;
    Sim.Engine.step st.engine;
    Sim.Engine.step st.engine;
    drain_outbox st;
    (* requests here have no round clock: each batch is its own group
       commit, so acknowledged replies are durable before they leave *)
    match st.store with Some s -> Store.flush s | None -> ()
  end

(* Prepare phase of the cluster round barrier: flush so everything this
   round executed is durable, then vote with the shard's current root.
   Idempotent — a retransmitted Prepare re-reports the same root. *)
let handle_prepare st sess ~round =
  match (sess.role, st.cfg.shard_id) with
  | Some Codec.Shard_link, Some shard_id ->
      execute_pending st;
      if round > st.round then st.round <- round;
      (match st.store with Some s -> Store.flush s | None -> ());
      jot st ~ev:"shard.seal" (Printf.sprintf "prepare r%d" round);
      Conn.send sess.conn
        (Codec.Shard_root
           {
             round;
             shard_id;
             generation =
               (match st.store with Some s -> Store.generation s | None -> 0);
             ctr = Server.ops_performed st.server;
             root = Server.true_root st.server;
           })
  | _ -> reject sess Codec.Protocol_violation "prepare outside a shard link"

let handle_commit st sess ~round =
  match sess.role with
  | Some Codec.Shard_link ->
      if round > st.round then st.round <- round;
      jot st ~ev:"shard.commit" (Printf.sprintf "composed root published r%d" round)
  | _ -> reject sess Codec.Protocol_violation "commit outside a shard link"

let handle_deliver_ack st sess ~psrc ~sseq =
  match Hashtbl.find_opt st.relays (psrc, sseq) with
  | None -> ()
  | Some r ->
      Hashtbl.remove r.r_pending sess.user;
      if Hashtbl.length r.r_pending = 0 then begin
        Hashtbl.remove st.relays (psrc, sseq);
        (* the Publish is only acknowledged once every recipient has
           acknowledged its Deliver — end-to-end reliable broadcast *)
        match session_for_user st psrc with
        | Some sp -> Conn.send sp.conn (Codec.Ack { seq = sseq })
        | None -> ()
      end

let[@tcvs.lint.root "event-loop"] handle_frame st sess frame =
  match (sess.role, frame) with
  | None, Codec.Hello h -> handle_hello st sess h
  | None, _ ->
      reject sess Codec.Protocol_violation "first frame must be Hello"
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
      else
        Log.debug (fun f ->
            f "u%d: stale tick_done r=%d at round %d ignored" sess.user r
              st.round)
  | Some _, Codec.Bye -> sess.said_bye <- true
  | Some _, Codec.Prepare { round } -> handle_prepare st sess ~round
  | Some _, Codec.Commit { round; root = _ } -> handle_commit st sess ~round
  | Some _, (Codec.Welcome _ | Codec.Reply _ | Codec.Deliver _ | Codec.Tick _
            | Codec.Session_end _ | Codec.Shard_root _) ->
      reject sess Codec.Protocol_violation "server-to-client frame from a client"
  | Some _, (Codec.Ack _ | Codec.Error_frame _) -> ()

(* ---- The round clock ------------------------------------------------- *)

let[@tcvs.lint.root "event-loop"] begin_tick st =
  st.round <- st.round + 1;
  Obs.incr c_ticks;
  st.tick_sent_at <- Unix.gettimeofday ();
  (* retransmit undelivered broadcasts before announcing the round *)
  Hashtbl.iter
    (fun (psrc, sseq) r ->
      Hashtbl.iter
        (fun v () -> deliver_to st v ~src:psrc ~sseq ~ctx:r.r_ctx r.r_msg)
        r.r_pending)
    st.relays;
  List.iter
    (fun s ->
      if lockstep s && s.user >= 0 then Conn.send s.conn (Codec.Tick { round = st.round }))
    st.sessions

let end_session st ~alarmed ~reason =
  st.session_over <- true;
  st.ended_at <- Unix.gettimeofday ();
  Log.info (fun f -> f "session over at round %d: %s" st.round reason);
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

let[@tcvs.lint.root "event-loop"] finish_round st =
  (* two steps: the first delivers this round's requests to the server
     (which executes and sends), the second delivers its responses to
     the capture stubs *)
  Sim.Engine.step st.engine;
  Sim.Engine.step st.engine;
  drain_outbox st;
  (* Group-commit point: everything this tick staged (ops, origins,
     cached replies) becomes durable together before the next Tick is
     announced — under Per_round this is the tick's only flush. *)
  (match st.store with
  | Some s ->
      let t0 = Unix.gettimeofday () in
      Store.flush s;
      let dur_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
      jot st ~dur_us ~ev:"daemon.flush" "group-commit"
  | None -> ());
  Obs.observe h_round_us
    (int_of_float ((Unix.gettimeofday () -. st.tick_sent_at) *. 1e6));
  let server_alarmed = Sim.Engine.first_alarm st.engine <> None in
  let any_alarm = server_alarmed || Array.exists Fun.id st.u_alarmed in
  let daemon_idle =
    Hashtbl.length st.outstanding = 0
    && Hashtbl.length st.relays = 0
    && Queue.is_empty st.outbox
  in
  let all_drained = Array.for_all Fun.id st.u_drained && daemon_idle in
  if any_alarm then
    end_session st ~alarmed:true
      ~reason:(if server_alarmed then "server-alarm" else "client-alarm")
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

(* ---- Setup ----------------------------------------------------------- *)

let make_boot_id () =
  let raw =
    Printf.sprintf "%f-%d" (Unix.gettimeofday ()) (Unix.getpid ())
  in
  let hex = Buffer.create 16 in
  String.iteri
    (fun i c -> if i < 8 then Buffer.add_string hex (Printf.sprintf "%02x" (Char.code c)))
    (Crypto.Sha256.digest raw);
  Buffer.contents hex

let write_port_file path port =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (string_of_int port);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* The slice of the seeded key space a shard daemon owns: the same
   boundaries the router (and a single-daemon [--shards N] run)
   computes from the full initial key list, so this daemon's 1-shard
   tree equals the corresponding shard subtree by construction — the
   composed cluster root is byte-identical to the sharded root. *)
let initial_slice cfg =
  let initial = Harness.initial_files cfg.files in
  match cfg.shard_id with
  | None -> initial
  | Some i ->
      let map =
        Store.Shard_map.create ~branching:cfg.branching ~shards:cfg.shard_count
          ~keys:(List.map fst initial)
      in
      List.filter (fun (k, _) -> Store.Shard_map.route map k = i) initial

let open_store cfg ~initial =
  match cfg.store_dir with
  | None -> Ok (None, None)
  | Some dir ->
      if Store.manifest_exists dir then
        match
          Store.resume ~checkpoint_every:cfg.checkpoint_every
            ~durability:cfg.durability ~dir ()
        with
        | Ok (s, r) -> Ok (Some s, Some r)
        | Error e -> Error e
      else (
        match
          Store.create_or_open ~checkpoint_every:cfg.checkpoint_every
            ~durability:cfg.durability ~dir
            ~branching:cfg.branching ~shards:cfg.shards
            ~initial ()
        with
        | Ok (s, _) -> Ok (Some s, None)
        | Error e -> Error e)

let build_state cfg =
  let initial = initial_slice cfg in
  match open_store cfg ~initial with
  | Error e -> Error ("store: " ^ e)
  | Ok (store, resume_from) ->
      let engine =
        Sim.Engine.create ~measure:Message.encoded_size ~classify:Message.kind ()
      in
      let mode, epoch_len = mode_of_protocol cfg.protocol in
      let initial_root_sig =
        match cfg.protocol with
        | Harness.Protocol_1 _ ->
            (* same deterministic PKI ceremony as the clients *)
            let rng = Crypto.Prng.create ~seed:cfg.seed in
            let _, signers =
              Pki.Keyring.setup
                ~scheme:(Pki.Signer.Hmac_shared { key = "experiment-shared-key" })
                ~users:cfg.users rng
            in
            let db =
              match store with
              | Some s -> Store.db s
              | None ->
                  Store.Shard_db.create ~branching:cfg.branching ~shards:cfg.shards
                    initial
            in
            Some
              (Tcvs.Protocol1.initial_signature ~signer:signers.(0)
                 ~root:(Store.Shard_db.root_digest db))
        | _ -> None
      in
      let server =
        Server.create ?store ~shards:cfg.shards ?resume_from
          {
            Server.mode;
            epoch_len;
            branching = cfg.branching;
            adversary = cfg.adversary;
            history_cap = Server.default_history_cap;
          }
          ~engine ~initial ~initial_root_sig
      in
      let outbox = Queue.create () in
      for u = 0 to cfg.users - 1 do
        Sim.Engine.register engine (Sim.Id.User u)
          {
            Sim.Engine.on_message =
              (fun ~round:_ ~src msg ->
                if src = Sim.Id.Server then Queue.add (u, msg) outbox);
            on_activate = (fun ~round:_ -> ());
          }
      done;
      let st =
        {
          cfg;
          engine;
          server;
          store;
          boot_id = make_boot_id ();
          outbox;
          sessions = [];
          vseq = Hashtbl.create 16;
          reply_cache = Hashtbl.create 16;
          outstanding = Hashtbl.create 16;
          relays = Hashtbl.create 64;
          u_done = Array.make (max cfg.users 1) (-1);
          u_drained = Array.make (max cfg.users 1) false;
          u_alarmed = Array.make (max cfg.users 1) false;
          round = 0;
          ticking = false;
          tick_sent_at = 0.;
          drain_ticks = 0;
          free_pending = false;
          session_over = false;
          ended_at = 0.;
          journal =
            (let proc =
               match cfg.shard_id with
               | Some i -> "shard" ^ string_of_int i
               | None -> "daemon"
             in
             Option.map (fun p -> Obs.Journal.open_ ~proc p) cfg.journal);
        }
      in
      (match resume_from with
      | None -> ()
      | Some (r : Store.recovered) ->
          List.iter (fun (u, s) -> Hashtbl.replace st.vseq u s) r.Store.seqs;
          List.iter
            (fun (u, s, payload) -> Hashtbl.replace st.reply_cache u (s, payload))
            r.Store.replies;
          Log.info (fun f ->
              f "resumed store: generation %d, ctr %d, %d user seqs"
                (match store with Some s -> Store.generation s | None -> 0)
                r.Store.ctr (List.length r.Store.seqs)));
      Ok st

(* ---- Admin endpoint --------------------------------------------------- *)

(* Scrape-on-connect: accepting a connection on the admin socket sends
   one JSON snapshot and closes. No request parsing, no admin state in
   the select loop — the simplest protocol a `watch`-style client and
   `tcvs_cli top` can both speak. *)

let admin_snapshot st =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"schema\": \"tcvs-admin/1\",\n  \"round\": %d,\n  \"ticking\": %b,\n\
    \  \"sessions\": %d,\n  \"outstanding\": %d,\n  \"relays_pending\": %d,\n\
    \  \"connections\": ["
    st.round st.ticking (List.length st.sessions)
    (Hashtbl.length st.outstanding)
    (Hashtbl.length st.relays);
  let joined =
    List.filter (fun s -> s.user >= 0) st.sessions
    |> List.sort (fun a b -> Int.compare a.user b.user)
  in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      let io = Conn.io_stats s.conn in
      Printf.bprintf buf
        "\n    { \"user\": %d, \"role\": %S, \"frames_in\": %d, \"frames_out\": \
         %d, \"bytes_in\": %d, \"bytes_out\": %d, \"backlog_bytes\": %d, \
         \"dedup_hits\": %d, \"outstanding\": %d }"
        s.user
        (match s.role with
        | Some Codec.Free -> "free"
        | Some Codec.Shard_link -> "shard-link"
        | _ -> "lockstep")
        io.Conn.frames_in io.Conn.frames_out io.Conn.bytes_in io.Conn.bytes_out
        (Conn.pending_out s.conn) s.dedup_hits
        (if Hashtbl.mem st.outstanding s.user then 1 else 0))
    joined;
  if joined <> [] then Buffer.add_string buf "\n  ";
  Buffer.add_string buf "],\n  \"registry\": ";
  Buffer.add_string buf (String.trim (Obs.Report.to_json ~volatile:true ()));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* ---- Main loop ------------------------------------------------------- *)

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
          | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | Unix.ADDR_UNIX p -> p
        in
        let conn = Conn.create ~max_frame:st.cfg.max_frame fd in
        let sess =
          { conn; peer; user = -1; role = None; said_bye = false; dedup_hits = 0 }
        in
        if List.length st.sessions >= st.cfg.max_conns then
          reject sess Codec.Busy
            (Printf.sprintf "connection limit %d reached" st.cfg.max_conns)
        else begin
          Obs.incr c_accepts;
          st.sessions <- sess :: st.sessions
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
    if not st.session_over then
      match Conn.pop sess.conn with
      | Ok None -> ()
      | Ok (Some frame) ->
          handle_frame st sess frame;
          pump ()
      | Error e ->
          Log.warn (fun f ->
              f "u%d: bad frame: %s — closing" sess.user (Codec.error_to_string e));
          reject sess Codec.Protocol_violation (Codec.error_to_string e)
  in
  pump ()

let run cfg =
  stop_requested := false;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_stop = Sys.Signal_handle (fun _ -> stop_requested := true) in
  Sys.set_signal Sys.sigterm on_stop;
  Sys.set_signal Sys.sigint on_stop;
  match
    (* shard mode: one engine user (the router) over a single internal
       shard; the cluster-wide partition lives in [initial_slice] *)
    match cfg.shard_id with
    | Some i when i < 0 || i >= cfg.shard_count ->
        Error
          (Printf.sprintf "shard id %d out of range [0, %d)" i cfg.shard_count)
    | Some _ -> build_state { cfg with users = 1; shards = 1 }
    | None -> build_state cfg
  with
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
              f "listening on 127.0.0.1:%d (boot %s, %d users, %s)" port st.boot_id
                cfg.users
                (Harness.protocol_name cfg.protocol));
          let admin =
            match cfg.admin_port with
            | None -> None
            | Some p -> (
                match Admin.listen ~port:p with
                | Error e ->
                    Log.err (fun f -> f "admin: %s" e);
                    None
                | Ok (a, ap) ->
                    Option.iter
                      (fun path -> write_port_file path ap)
                      cfg.admin_port_file;
                    Log.app (fun f -> f "admin endpoint on 127.0.0.1:%d" ap);
                    Some a)
          in
          let admin_scrape () =
            Obs.incr c_admin_scrapes;
            admin_snapshot st
          in
          let rec loop () =
            if !stop_requested && not st.session_over then
              end_session st ~alarmed:false ~reason:"sigterm-drain";
            prune_sessions st;
            (* session lifecycle *)
            if st.session_over then begin
              List.iter (fun s -> Conn.flush s.conn) st.sessions;
              let flushed =
                List.for_all (fun s -> Conn.pending_out s.conn = 0) st.sessions
              in
              if
                flushed || st.sessions = []
                || Unix.gettimeofday () -. st.ended_at > 2.0
              then begin
                List.iter (fun s -> Conn.close s.conn) st.sessions;
                Unix.close listen_fd;
                Option.iter Admin.close admin;
                (match st.journal with Some j -> Obs.Journal.close j | None -> ());
                (match st.store with Some s -> Store.close s | None -> ());
                Ok ()
              end
              else select_and_continue ()
            end
            else begin
              if (not st.ticking) && lockstep_joined st && st.cfg.users > 0
                 && has_role st Codec.Lockstep
              then begin
                st.ticking <- true;
                Log.info (fun f -> f "all %d users joined — starting round clock" st.cfg.users);
                begin_tick st
              end;
              if st.ticking then begin
                if tick_complete st then finish_round st
                else if Unix.gettimeofday () -. st.tick_sent_at > cfg.tick_timeout
                then begin
                  (* a Tick or Tick_done was lost to a reconnect — re-announce *)
                  st.tick_sent_at <- Unix.gettimeofday ();
                  List.iter
                    (fun s ->
                      if lockstep s && s.user >= 0 && st.u_done.(s.user) < st.round
                      then begin
                        Log.debug (fun f ->
                            f "re-tick round %d to u%d (done %d)" st.round
                              s.user st.u_done.(s.user));
                        Conn.send s.conn (Codec.Tick { round = st.round })
                      end)
                    st.sessions
                end
              end;
              execute_pending st;
              select_and_continue ()
            end
          and select_and_continue () =
            let rfds = listen_fd :: List.map (fun s -> Conn.fd s.conn) st.sessions in
            let rfds =
              match admin with Some a -> Admin.fd a :: rfds | None -> rfds
            in
            let wfds =
              List.filter_map
                (fun s -> if Conn.want_write s.conn then Some (Conn.fd s.conn) else None)
                st.sessions
            in
            let wfds =
              match admin with Some a -> Admin.wfds a @ wfds | None -> wfds
            in
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
            List.iter
              (fun s -> if List.mem (Conn.fd s.conn) writable then Conn.flush s.conn)
              st.sessions;
            (* opportunistic flush for freshly queued frames *)
            List.iter (fun s -> Conn.flush s.conn) st.sessions;
            loop ()
          in
          loop ())
