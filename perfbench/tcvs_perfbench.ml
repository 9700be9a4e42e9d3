(* The Trusted-CVS closed-loop benchmark load generator.

   One run starts a real deployment — a store-backed [Net.Daemon], or a
   [Net.Router] over store-backed shard daemons — as separate processes
   configured through the libraries' public [config] records, then
   drives it from this single-threaded process over one free-mode
   connection in a closed loop. Every reply is verified the way a
   Trusted-CVS user would: its VO is replayed with [Mtree.Vo.apply] and
   chained (old root, new root) by [ctr] from the root in [Welcome];
   at the end the final root and every read answer are compared with an
   in-process oracle replay.

   [--trace 0] prints the end-to-end metrics; [--trace 1] prints the
   per-layer metrics from client-side spans plus an in-process replay
   of the same op stream through the server pipeline's public
   functions. The last line of standard output is the result object.
   See NOTES.md in this directory. *)

module Codec = Net.Codec
module Conn = Net.Conn
module Vo = Mtree.Vo
module Sdb = Store.Shard_db
module Message = Tcvs.Message
module Harness = Tcvs.Harness

let now_ns = Sysinfo.now_ns
let ( // ) = Filename.concat

(* ---- Workloads ------------------------------------------------------- *)

type topology = Single | Cluster of int

type workload = {
  name : string;
  files : int;
  write_ratio : float;
  zipf_s : float;  (** 0 = uniform *)
  topology : topology;
  setup_reps : int;  (** deployments started per run; setup_s is their median *)
}

(* Why each workload exists, and why BENCHMARK.json gates only the
   last two (read-hot's p99 is file-metadata latency, too noisy on a
   shared VM), is in NOTES.md. *)
let workloads =
  [
    { name = "read-hot"; files = 32; write_ratio = 0.05; zipf_s = 1.1;
      topology = Single; setup_reps = 25 };
    { name = "commit-large"; files = 65536; write_ratio = 0.5; zipf_s = 0.;
      topology = Single; setup_reps = 5 };
    { name = "cluster-mixed"; files = 4096; write_ratio = 0.2; zipf_s = 1.1;
      topology = Cluster 2; setup_reps = 15 };
  ]

let shard_count wl = match wl.topology with Single -> 1 | Cluster n -> n
let daemon_defaults = Net.Daemon.default_config

(* ---- The op stream --------------------------------------------------- *)

type gen = { wl : workload; zipf : Workload.Zipf.t; rng : Crypto.Prng.t; mutable n : int }

let make_gen wl ~seed =
  {
    wl;
    zipf = Workload.Zipf.create ~n:wl.files ~s:wl.zipf_s;
    rng = Crypto.Prng.create ~seed:(Printf.sprintf "perfbench/%s/%d" wl.name seed);
    n = 0;
  }

let next_op g =
  g.n <- g.n + 1;
  let key = Harness.file_key (Workload.Zipf.sample g.zipf g.rng) in
  if Crypto.Prng.bernoulli g.rng ~p:g.wl.write_ratio then
    Vo.Set (key, Printf.sprintf "(* rev %d *)\nlet version = %d\n" g.n g.n)
  else Vo.Get key

let is_write = function Vo.Get _ | Vo.Range _ -> false | _ -> true

(* ---- Growable int vectors -------------------------------------------- *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then v.a <- Array.append v.a (Array.make v.n 0);
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else float_of_int sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median_f l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- Deployments ----------------------------------------------------- *)

type server = { pid : int; role : string; admin_file : string }

type deployment = {
  servers : server list;
  conn : Conn.t;
  welcome : Codec.welcome;
  setup_ns : int;
}

(* Server processes re-execute this binary in a serve mode that builds
   the library's config record and calls its [run]; a fresh exec keeps
   their memory (peak RSS) free of the load generator's heap. *)
let spawn_server ~dir ~role args =
  let port_file = dir // (role ^ ".port") in
  let pp = Sysinfo.port_pipe port_file in
  let argv =
    Array.of_list
      ([ Sys.executable_name; "--serve"; role; "--dir"; dir ] @ args)
  in
  flush stdout;
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  Sysinfo.children := pid :: !Sysinfo.children;
  let server = { pid; role; admin_file = dir // (role ^ ".admin") } in
  match Sysinfo.await_port pp ~pid ~timeout:120. with
  | Ok port -> Ok (server, port)
  | Error e ->
      Sysinfo.stop_child pid;
      Error (Printf.sprintf "%s: %s" role e)

let serve_main ~role ~dir ~files ~shard ~shard_count ~shard_ports =
  let port_file = Some (dir // (role ^ ".port")) in
  let admin_port_file = Some (dir // (role ^ ".admin")) in
  if String.equal role "router" then
    Net.Router.run
      {
        (Net.Router.default_config
           ~shard_addrs:(Array.of_list (List.map (fun p -> ("127.0.0.1", p)) shard_ports)))
        with
        Net.Router.port_file;
        files;
        users = 1;
        admin_port = Some 0;
        admin_port_file;
      }
  else
    Net.Daemon.run
      {
        daemon_defaults with
        Net.Daemon.port_file;
        store_dir = Some (dir // (role ^ ".store"));
        files;
        users = 1;
        seed = "perfbench";
        admin_port = Some 0;
        admin_port_file;
        (* shard daemons run as `serve-cluster` spawns them *)
        protocol = (if shard >= 0 then Harness.Unverified else daemon_defaults.protocol);
        shard_id = (if shard >= 0 then Some shard else None);
        shard_count;
      }

(* The next frame, with the monotonic time just before the [Conn.pop]
   that parsed it — the split between waiting and decoding. *)
let await_frame conn ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let ta = now_ns () in
    match Conn.pop conn with
    | Error e -> Error (Codec.error_to_string e)
    | Ok (Some f) -> Ok (f, ta)
    | Ok None ->
        let left = deadline -. Unix.gettimeofday () in
        if Conn.eof conn then Error "server closed the connection"
        else if left <= 0. then Error (Printf.sprintf "no frame within %g s" timeout)
        else begin
          let fd = Conn.fd conn in
          let w = if Conn.want_write conn then [ fd ] else [] in
          (match Unix.select [ fd ] w [] left with
          | _, w', _ ->
              if w' <> [] then Conn.flush conn;
              Conn.fill conn
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
  in
  loop ()

let teardown (d : deployment) =
  Conn.send d.conn Codec.Bye;
  Conn.flush d.conn;
  Conn.close d.conn;
  (* router first: it would otherwise chase its vanished shards *)
  List.iter (fun s -> Sysinfo.stop_child s.pid) (List.rev d.servers)

(* Spawn → first [Welcome]: process start, store creation with the
   initial bulk load, listen, connect, handshake. *)
let deploy wl ~dir =
  Unix.mkdir dir 0o755;
  let t0 = now_ns () in
  let files = string_of_int wl.files in
  let spawned =
    match wl.topology with
    | Single -> (
        match spawn_server ~dir ~role:"daemon" [ "--files"; files ] with
        | Ok (s, port) -> Ok ([ s ], port)
        | Error e -> Error e)
    | Cluster n ->
        let rec shards i acc =
          if i = n then Ok (List.rev acc)
          else
            match
              spawn_server ~dir ~role:(Printf.sprintf "shard%d" i)
                [ "--files"; files; "--shard"; string_of_int i; "--shard-count"; string_of_int n ]
            with
            | Ok sp -> shards (i + 1) (sp :: acc)
            | Error e ->
                List.iter (fun (s, _) -> Sysinfo.stop_child s.pid) acc;
                Error e
        in
        Result.bind (shards 0 []) (fun sps ->
            let ports = String.concat "," (List.map (fun (_, p) -> string_of_int p) sps) in
            match spawn_server ~dir ~role:"router" [ "--files"; files; "--shard-ports"; ports ] with
            | Ok (r, port) -> Ok (List.map fst sps @ [ r ], port)
            | Error e ->
                List.iter (fun (s, _) -> Sysinfo.stop_child s.pid) sps;
                Error e)
  in
  match spawned with
  | Error e -> Error e
  | Ok (servers, port) -> (
      let fail e =
        List.iter (fun s -> Sysinfo.stop_child s.pid) (List.rev servers);
        Error e
      in
      match Sysinfo.loopback_connect port with
      | Error e -> fail ("connect: " ^ e)
      | Ok fd -> (
          let conn = Conn.create fd in
          Conn.send conn
            (Codec.Hello
               { Codec.h_version = Codec.protocol_version; h_role = Codec.Free;
                 h_user = 0; h_users = 1; h_round = 0 });
          Conn.flush conn;
          match await_frame conn ~timeout:120. with
          | Ok (Codec.Welcome welcome, _) ->
              Ok { servers; conn; welcome; setup_ns = now_ns () - t0 }
          | Ok (f, _) ->
              Conn.close conn;
              fail ("handshake answered with " ^ Codec.frame_kind f)
          | Error e ->
              Conn.close conn;
              fail ("handshake: " ^ e)))

(* ---- The verifying client -------------------------------------------- *)

type client = {
  conn : Conn.t;
  gen : gen;
  mutable seq : int;
  mutable root : string;  (** trusted root *)
  mutable ctr : int;  (** expected server counter of the next reply *)
  log : (Vo.op * Vo.answer option) Queue.t;
      (** every op the server answered, with its verified answer *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, newest first *)
  mutable broken : bool;  (** connection unusable: stop issuing *)
  mutable corrupt_next_read : bool;  (** self-check: flip one VO byte *)
}

let new_client (d : deployment) ~gen =
  {
    conn = d.conn;
    gen;
    seq = 0;
    root = d.welcome.Codec.w_root;
    ctr = d.welcome.Codec.w_ctr;
    log = Queue.create ();
    attempted = 0;
    failed = 0;
    failures = [];
    broken = false;
    corrupt_next_read = false;
  }

let note_failure cl msg =
  cl.failed <- cl.failed + 1;
  if List.length cl.failures < 5 then
    cl.failures <- Printf.sprintf "op %d: %s" cl.attempted msg :: cl.failures

let flip_vo_byte = function
  | Message.Response r -> (
      let b = Bytes.of_string (Vo.encode r.vo) in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      match Vo.decode (Bytes.to_string b) with
      | Some vo -> Ok (Message.Response { r with vo })
      | None -> Error "corrupted VO no longer decodes")
  | m -> Ok m

let verify cl op msg =
  match msg with
  | Message.Response { answer; vo; ctr; _ } -> (
      match Vo.apply vo op with
      | Error e -> Error (Format.asprintf "VO replay: %a" Vo.pp_error e)
      | Ok (replayed, old_root, new_root) ->
          if ctr <> cl.ctr then Error (Printf.sprintf "ctr %d, expected %d" ctr cl.ctr)
          else if not (String.equal old_root cl.root) then
            Error "VO does not start at the trusted root"
          else if replayed <> answer then Error "answer differs from the VO replay"
          else begin
            cl.root <- new_root;
            cl.ctr <- cl.ctr + 1;
            Ok replayed
          end)
  | m -> Error ("unexpected reply " ^ Message.kind m)

(* Client-side spans of the traced run. *)
type tracer = {
  spans : Spans.t;
  s_op : int;
  s_encode : int;
  s_wait : int;
  s_decode : int;
  s_verify : int;
}

let make_tracer () =
  let spans = Spans.create () in
  {
    spans;
    s_op = Spans.intern spans "client.op";
    s_encode = Spans.intern spans "client.encode";
    s_wait = Spans.intern spans "client.wait";
    s_decode = Spans.intern spans "client.decode";
    s_verify = Spans.intern spans "client.verify";
  }

(* One closed-loop round trip: send, wait, decode, verify. Returns the
   send→verified latency in ns, or [None] when the op failed. *)
let roundtrip cl ~tracer op =
  cl.attempted <- cl.attempted + 1;
  cl.seq <- cl.seq + 1;
  let seq = cl.seq in
  let t0 = now_ns () in
  Conn.send cl.conn
    (Codec.Request
       { seq; ctx = { Codec.x_round = 0; x_user = 0; x_span = seq };
         msg = Message.Query { op; piggyback = [] } });
  let t1 = now_ns () in
  Conn.flush cl.conn;
  match await_frame cl.conn ~timeout:30. with
  | Error e ->
      cl.broken <- true;
      note_failure cl e;
      None
  | Ok (frame, t2) -> (
      let t3 = now_ns () in
      let checked =
        match frame with
        | Codec.Reply { seq = s; msg; _ } when s = seq ->
            let reply_ctr = match msg with Message.Response { ctr; _ } -> Some ctr | _ -> None in
            let msg =
              if cl.corrupt_next_read && not (is_write op) then begin
                cl.corrupt_next_read <- false;
                flip_vo_byte msg
              end
              else Ok msg
            in
            let r = Result.bind msg (verify cl op) in
            (* A failed op is counted, not repaired: the trusted root stays
               where it was (a read did not move the server's), and the
               server's counter, which advanced, is taken from the reply. *)
            (match (r, reply_ctr) with Error _, Some c -> cl.ctr <- c + 1 | _ -> ());
            Queue.add (op, Result.to_option r) cl.log;
            r
        | Codec.Error_frame { code; detail } ->
            cl.broken <- true;
            Error (Printf.sprintf "error frame %s: %s" (Codec.error_code_to_string code) detail)
        | f ->
            cl.broken <- true;
            Error ("unexpected " ^ Codec.frame_kind f)
      in
      let t4 = now_ns () in
      (match tracer with
      | Some tr ->
          let sp = tr.spans in
          let op_id = cl.attempted in
          let p = Spans.add sp ~name:tr.s_op ~start:t0 ~stop:t4 ~parent:(-1) ~op:op_id in
          ignore (Spans.add sp ~name:tr.s_encode ~start:t0 ~stop:t1 ~parent:p ~op:op_id);
          ignore (Spans.add sp ~name:tr.s_wait ~start:t1 ~stop:t2 ~parent:p ~op:op_id);
          ignore (Spans.add sp ~name:tr.s_decode ~start:t2 ~stop:t3 ~parent:p ~op:op_id);
          ignore (Spans.add sp ~name:tr.s_verify ~start:t3 ~stop:t4 ~parent:p ~op:op_id)
      | None -> ());
      match checked with
      | Ok _ -> Some (t4 - t0)
      | Error e ->
          note_failure cl e;
          None)

type budget = Seconds of float | Ops of int

(* Readings taken at the window's start, at every whole second and at
   its end. The window's statistics span the whole window; the slices
   between marks show how the host's speed moved inside it. *)
type mark = { at : int;  (** ns since the window started *) n : int;  (** verified ops *)
              server_ticks : int; client_s : float }

type window = {
  ops : int;  (** verified ops *)
  wall_ns : int;
  lat : int array;  (** send→verified latency of each verified op, ns *)
  writes : bool array;
  marks : mark array;
  ops_list : Vo.op list;  (** the window's op stream, in order *)
}

let client_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* (utime, stime) ticks summed over processes. *)
let cpu_ticks pids =
  List.fold_left
    (fun (u, s) pid ->
      let u', s' = Sysinfo.cpu_ticks pid in
      (u + u', s + s'))
    (0, 0) pids

let run_window ?tracer ?(pids = []) cl budget =
  let lat = Vec.create () and wr = Vec.create () in
  let ops = ref [] in
  let marks = ref [] in
  let t0 = now_ns () in
  let mark n =
    let u, s = cpu_ticks pids in
    marks := { at = now_ns () - t0; n; server_ticks = u + s; client_s = client_cpu_s () } :: !marks
  in
  mark 0;
  let next_mark = ref 1_000_000_000 in
  let stop =
    match budget with
    | Seconds s ->
        let until = t0 + int_of_float (s *. 1e9) in
        fun _ -> now_ns () >= until
    | Ops n -> fun i -> i >= n
  in
  let rec loop i =
    if cl.broken || stop i then ()
    else begin
      let op = next_op cl.gen in
      ops := op :: !ops;
      (match roundtrip cl ~tracer op with
      | Some l ->
          Vec.push lat l;
          Vec.push wr (Bool.to_int (is_write op))
      | None -> ());
      if now_ns () - t0 >= !next_mark then begin
        mark lat.Vec.n;
        next_mark := !next_mark + 1_000_000_000
      end;
      loop (i + 1)
    end
  in
  loop 0;
  mark lat.Vec.n;
  {
    ops = lat.Vec.n;
    wall_ns = now_ns () - t0;
    lat = Array.sub lat.Vec.a 0 lat.Vec.n;
    writes = Array.init wr.Vec.n (fun i -> wr.Vec.a.(i) = 1);
    marks = Array.of_list (List.rev !marks);
    ops_list = List.rev !ops;
  }

let sorted a =
  let a = Array.copy a in
  Array.sort Int.compare a;
  a

(* Slices of consecutive marks holding at least [min_ops] verified ops
   each — enough that a slice's 99th percentile leaves ten samples
   beyond it; the whole window when no slice qualifies. *)
let slices w ~min_ops =
  let m = w.marks in
  let last = Array.length m - 1 in
  let rec go i j acc =
    if j > last then List.rev acc
    else if m.(j).n - m.(i).n >= min_ops then go j (j + 1) ((m.(i), m.(j)) :: acc)
    else go i (j + 1) acc
  in
  match go 0 1 [] with [] -> [ (m.(0), m.(last)) ] | l -> l

let slice_lat w (a : mark) (b : mark) ~keep =
  let acc = ref [] in
  for i = b.n - 1 downto a.n do
    if keep w.writes.(i) then acc := w.lat.(i) :: !acc
  done;
  sorted (Array.of_list !acc)

(* The in-process oracle: replay every answered op over the initial
   database; the final root must equal the client's trusted root and
   every verified answer must equal the oracle's. *)
let oracle_db0 wl =
  Sdb.create ~branching:daemon_defaults.Net.Daemon.branching ~shards:(shard_count wl)
    (Harness.initial_files wl.files)

let oracle_check ~db0 cl =
  let db, mismatches =
    Queue.fold
      (fun (db, bad) (op, verified) ->
        let db', answer = Sdb.apply db op in
        match verified with
        | Some a when a <> answer -> (db', bad + 1)
        | _ -> (db', bad))
      (db0, 0) cl.log
  in
  if mismatches > 0 then Error (Printf.sprintf "%d answers differ from the oracle" mismatches)
  else if not (String.equal (Sdb.root_digest db) cl.root) then
    Error "final root differs from the oracle replay"
  else Ok ()

(* ---- Process accounting ---------------------------------------------- *)

let ticks_to_us t = float_of_int t *. 1e6 /. Sysinfo.clk_tck

let wire_bytes conn =
  let io = Conn.io_stats conn in
  io.Conn.bytes_in + io.Conn.bytes_out

let admin_port s =
  match Sysinfo.read_port_file s.admin_file ~timeout:30. with
  | Ok p -> p
  | Error e -> failwith e

let scrape s =
  match Sysinfo.scrape_counters (admin_port s) with
  | Ok kvs -> kvs
  | Error e -> failwith (s.role ^ ": " ^ e)

let counter kvs name = Option.value ~default:0 (List.assoc_opt name kvs)

(* ---- Layer replay ---------------------------------------------------- *)

(* Per-op pipeline of one shard's daemon, through the same public
   functions in the daemon's order: decode the request frame, declare
   its origin, generate the VO, apply, log the op (which may trigger a
   checkpoint), encode the reply for the reply cache, log the reply,
   encode the reply frame, flush. *)
type replay_shard = { store : Store.t; mutable db : Sdb.t; mutable ctr : int }

type replay_result = {
  r_spans : Spans.t;
  r_ops : int;
  r_counters : (string * int) list;  (** deltas over the replay *)
  r_depth_sum : int;  (** materialised nodes on each op's path, summed *)
  r_wchar : int;
  r_vo_bytes : int;
  r_user_bytes : int;
  r_disk_bytes : int;
  r_live_bytes : int;
}

(* Nodes the VO materialises on the op's root-to-leaf path: the proof
   depth the client replays. *)
let path_depth root op =
  match op with
  | Vo.Get key | Vo.Set (key, _) | Vo.Remove key ->
      let rec go = function
        | Mtree.Node.Node { keys; children; _ } -> 1 + go children.(Mtree.Node.child_index keys key)
        | Mtree.Node.Leaf _ -> 1
        | Mtree.Node.Stub _ -> 0
      in
      go root
  | Vo.Set_many _ | Vo.Range _ -> 0

let replay_counters =
  [ "mtree.node_rebuilds"; "store.checkpoints"; "store.wal.flushes"; "store.wal.fsyncs";
    "store.segment_rolls" ]

let replay wl ~dir ~ops =
  let initial = Harness.initial_files wl.files in
  let n = shard_count wl in
  let map =
    Store.Shard_map.create ~branching:daemon_defaults.Net.Daemon.branching ~shards:n
      ~keys:(List.map fst initial)
  in
  let boundaries = Store.Shard_map.boundaries map in
  let shards =
    Array.init n (fun i ->
        let slice = List.filter (fun (k, _) -> Store.Shard_map.route map k = i) initial in
        match
          Store.create_or_open ~checkpoint_every:daemon_defaults.Net.Daemon.checkpoint_every
            ~durability:daemon_defaults.Net.Daemon.durability
            ~dir:(dir // Printf.sprintf "replay%d" i)
            ~branching:daemon_defaults.Net.Daemon.branching ~shards:1 ~initial:slice ()
        with
        | Ok (store, _) -> { store; db = Store.db store; ctr = 0 }
        | Error e -> failwith ("replay store: " ^ e))
  in
  (* sub-requests exactly as the daemons receive them, encoded up front *)
  let work =
    List.mapi
      (fun j op ->
        let touched = if n = 1 then [ 0 ] else Vo.shards_for boundaries op in
        List.map
          (fun i ->
            let sop = if n = 1 then op else Vo.sub_op_for boundaries i op in
            ( j,
              i,
              Codec.encode_frame
                (Codec.Request
                   { seq = j + 1; ctx = { Codec.x_round = 0; x_user = 0; x_span = j + 1 };
                     msg = Message.Query { op = sop; piggyback = [] } }) ))
          touched)
      ops
    |> List.concat
  in
  let sp = Spans.create () in
  let nm = Spans.intern sp in
  let s_op = nm "replay.op" and s_decode = nm "codec.decode" and s_gen = nm "mtree.vo_generate"
  and s_apply = nm "mtree.apply" and s_stage = nm "store.stage"
  and s_ckpt = nm "store.checkpoint" and s_encode = nm "codec.encode"
  and s_flush = nm "store.flush" in
  let before = List.map Obs.value replay_counters in
  let vo_bytes = ref 0 and depth_sum = ref 0 in
  let wchar0 = Sysinfo.wchar_self () in
  List.iter
    (fun (j, i, frame) ->
      let sh = shards.(i) in
      let t0 = now_ns () in
      let p = Spans.add sp ~name:s_op ~start:t0 ~stop:t0 ~parent:(-1) ~op:j in
      let span name f =
        let a = now_ns () in
        let r = f () in
        ignore (Spans.add sp ~name ~start:a ~stop:(now_ns ()) ~parent:p ~op:j);
        r
      in
      let seq, op =
        match span s_decode (fun () -> Codec.decode_frame frame) with
        | Ok (Codec.Request { seq; msg = Message.Query { op; _ }; _ }) -> (seq, op)
        | _ -> failwith "replay: request frame does not decode"
      in
      span s_stage (fun () -> Store.declare_origin sh.store ~user:0 ~seq);
      let vo = span s_gen (fun () -> Sdb.generate_vo sh.db op) in
      vo_bytes := !vo_bytes + Vo.size_bytes vo;
      depth_sum := !depth_sum + path_depth (Vo.root_node vo) op;
      let db', answer = span s_apply (fun () -> Sdb.apply sh.db op) in
      let pre_ctr = sh.ctr in
      sh.db <- db';
      sh.ctr <- sh.ctr + 1;
      let ck0 = Obs.value "store.checkpoints" in
      let a = now_ns () in
      Store.log_op sh.store ~db:db' ~op ~ctr:sh.ctr ~last_user:0;
      let b = now_ns () in
      let name = if Obs.value "store.checkpoints" > ck0 then s_ckpt else s_stage in
      ignore (Spans.add sp ~name ~start:a ~stop:b ~parent:p ~op:j);
      let msg =
        Message.Response
          { answer; vo; ctr = pre_ctr; last_user = (if pre_ctr = 0 then -1 else 0);
            root_sig = None; epoch = 0; epoch_states = [] }
      in
      let payload = span s_encode (fun () -> Codec.encode_message msg) in
      span s_stage (fun () -> Store.log_reply sh.store ~user:0 ~seq ~payload);
      ignore
        (span s_encode (fun () ->
             Codec.encode_frame
               (Codec.Reply { seq; ctx = { Codec.x_round = 0; x_user = 0; x_span = seq }; msg })));
      span s_flush (fun () -> Store.flush sh.store);
      Spans.close sp p ~stop:(now_ns ()))
    work;
  let wchar = Sysinfo.wchar_self () - wchar0 in
  let after = List.map Obs.value replay_counters in
  let user_bytes =
    List.fold_left
      (fun acc op ->
        match op with Vo.Set (k, v) -> acc + String.length k + String.length v | _ -> acc)
      0 ops
  in
  let live =
    Array.fold_left
      (fun acc sh ->
        List.fold_left
          (fun acc (k, v) -> acc + String.length k + String.length v)
          acc (Sdb.to_alist sh.db))
      0 shards
  in
  Array.iter (fun sh -> Store.close sh.store) shards;
  let disk =
    Array.fold_left ( + ) 0
      (Array.init n (fun i -> Sysinfo.dir_bytes (dir // Printf.sprintf "replay%d" i)))
  in
  {
    r_spans = sp;
    r_ops = List.length ops;
    r_counters = List.map2 (fun name (a, b) -> (name, b - a)) replay_counters
        (List.combine before after);
    r_depth_sum = !depth_sum;
    r_wchar = wchar;
    r_vo_bytes = !vo_bytes;
    r_user_bytes = user_bytes;
    r_disk_bytes = disk;
    r_live_bytes = live;
  }

(* Median µs per call of [f] over a few timed batches. *)
let calibrate f =
  let batch = 200 in
  let time_batch () =
    let t0 = now_ns () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    float_of_int (now_ns () - t0) /. 1e3 /. float_of_int batch
  in
  ignore (time_batch ());
  median_f (List.init 9 (fun _ -> time_batch ()))

(* ---- Output ---------------------------------------------------------- *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

let json_num f =
  (* a failed run can leave a statistic without samples *)
  let f = if Float.is_nan f then 0. else f in
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_str s = Printf.sprintf "%S" s

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str x.m_name)
              (json_num x.m_value) (json_str x.m_unit))
          metrics))

(* ---- Runs ------------------------------------------------------------ *)

type opts = {
  wl : workload;
  seed : int;
  seconds : float;
  trace : bool;
  ops_budget : int option;  (** fixed op counts instead of seconds (self-check) *)
  corrupt : bool;  (** flip one VO byte in one read reply *)
  cpu : int;
  rev : string;
  src : string;
  profile : string;
  work : string;  (** this run's scratch directory *)
}

let config_line o ~warmup ~setup_reps =
  let wl = o.wl in
  let d = daemon_defaults in
  let fields =
    [
      ("workload", json_str wl.name);
      ("seed", string_of_int o.seed);
      ("seconds", Printf.sprintf "%g" o.seconds);
      ("trace", string_of_bool o.trace);
      ("cpu", string_of_int o.cpu);
      ("build_profile", json_str o.profile);
      ("git_rev", json_str o.rev);
      ("src_sha256", json_str o.src);
      ( "protocol",
        json_str
          (match wl.topology with
          | Single -> Harness.protocol_name d.Net.Daemon.protocol
          | Cluster _ -> Harness.protocol_name Harness.Unverified) );
      ("store", json_str "per-daemon");
      ("durability", json_str (Store.durability_to_string d.Net.Daemon.durability));
      ("fsync", "false");
      ("checkpoint_every", string_of_int d.Net.Daemon.checkpoint_every);
      ("branching", string_of_int d.Net.Daemon.branching);
      ("topology", json_str (match wl.topology with Single -> "daemon" | Cluster _ -> "router"));
      ("shards", string_of_int (shard_count wl));
      ("files", string_of_int wl.files);
      ( "op_mix",
        Printf.sprintf "{\"get\": %g, \"set\": %g}" (1. -. wl.write_ratio) wl.write_ratio );
      ("zipf_s", Printf.sprintf "%g" wl.zipf_s);
      ("connections", "1");
      ("loop", json_str "closed");
      ("warmup", json_str warmup);
      ("setup_reps", string_of_int setup_reps);
    ]
  in
  Printf.sprintf "{\"config\": {%s}}"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

exception Run_failed of string

let ok_or_fail = function Ok x -> x | Error e -> raise (Run_failed e)

let ms_of_ns x = x /. 1e6

let run o =
  let wl = o.wl in
  let steal0 = Sysinfo.cpu_jiffies o.cpu in
  (* calibrated first, while the heap is small: a large heap's major GC
     slices would be charged to the digests *)
  let sha_kib, sha_block =
    if o.trace then
      let kib = String.make 1024 'k' and blk = String.make 64 'b' in
      (calibrate (fun () -> Crypto.Sha256.digest kib), calibrate (fun () -> Crypto.Sha256.digest blk))
    else (0., 0.)
  in
  let reps = if o.trace then 1 else if o.ops_budget <> None then 2 else wl.setup_reps in
  (* set-up: [reps] fresh deployments; the last one serves the load *)
  let rec setups i acc =
    let d = ok_or_fail (deploy wl ~dir:(o.work // Printf.sprintf "deploy%d" i)) in
    let acc = float_of_int d.setup_ns /. 1e9 :: acc in
    if i + 1 < reps then begin
      teardown d;
      setups (i + 1) acc
    end
    else (d, acc)
  in
  let d, setup_samples = setups 0 [] in
  let gen = make_gen wl ~seed:o.seed in
  let cl = new_client d ~gen in
  let finish () = teardown d in
  let budget frac =
    match o.ops_budget with
    | Some n -> Ops n
    | None -> Seconds (o.seconds *. frac)
  in
  let warmup_budget =
    match o.ops_budget with Some n -> Ops (max 1 (n / 5)) | None -> Seconds 1.0
  in
  print_endline
    (config_line o ~setup_reps:reps
       ~warmup:(match warmup_budget with Ops n -> Printf.sprintf "%d ops" n | Seconds s -> Printf.sprintf "%g s" s));
  (* first-contact check: a fresh deployment serves M(D0) *)
  let db0 = oracle_db0 wl in
  if not (String.equal (Sdb.root_digest db0) cl.root) then
    note_failure cl "Welcome root is not M(D0)";
  ignore (run_window cl warmup_budget);
  if o.corrupt then cl.corrupt_next_read <- true;
  let server_pids = List.map (fun s -> s.pid) d.servers in
  let metrics, spans_out =
    if not o.trace then begin
      let w0 = wire_bytes cl.conn in
      let w = run_window ~pids:server_pids cl (budget 1.0) in
      let w1 = wire_bytes cl.conn in
      let rss_kb = List.fold_left (fun acc pid -> acc + Sysinfo.status_kb pid "VmHWM") 0 server_pids in
      finish ();
      let ops = float_of_int (max 1 w.ops) in
      let first = w.marks.(0) and last = w.marks.(Array.length w.marks - 1) in
      let lat keep p = ms_of_ns (percentile (slice_lat w first last ~keep) p) in
      let all _ = true in
      Printf.printf "# slices (ops/s, p99 ms): %s\n"
        (String.concat " "
           (List.map
              (fun (a, b) ->
                Printf.sprintf "%.0f,%.2f"
                  (float_of_int (b.n - a.n) /. (float_of_int (b.at - a.at) /. 1e9))
                  (ms_of_ns (percentile (slice_lat w a b ~keep:all) 0.99)))
              (slices w ~min_ops:1000)));
      ( [
          m "ops_per_s" "ops/s" (float_of_int w.ops /. (float_of_int w.wall_ns /. 1e9));
          m "read_p50_ms" "ms" (lat not 0.5);
          m "write_p50_ms" "ms" (lat Fun.id 0.5);
          m "latency_p99_ms" "ms" (lat all 0.99);
          m "server_cpu_us_per_op" "us" (ticks_to_us (last.server_ticks - first.server_ticks) /. ops);
          m "client_cpu_us_per_op" "us" ((last.client_s -. first.client_s) *. 1e6 /. ops);
          m "wire_bytes_per_op" "B" (float_of_int (w1 - w0) /. ops);
          m "server_peak_rss_mb" "MB" (float_of_int rss_kb /. 1024.);
          m "setup_s" "s" (median_f setup_samples);
        ],
        None )
    end
    else begin
      (* part 1: untraced reference, then the traced loopback window *)
      let wa = run_window cl (budget 0.3) in
      let tr = make_tracer () in
      let pipeline, router =
        match wl.topology with
        | Single -> (d.servers, [])
        | Cluster _ -> List.partition (fun s -> not (String.equal s.role "router")) d.servers
      in
      let before = List.map scrape d.servers in
      let pcpu0 = cpu_ticks (List.map (fun s -> s.pid) pipeline)
      and rcpu0 = cpu_ticks (List.map (fun s -> s.pid) router) in
      let digests0 = Obs.value "crypto.sha256.digests" in
      let wb = run_window ~tracer:tr cl (budget 0.4) in
      let client_digests = Obs.value "crypto.sha256.digests" - digests0 in
      let pcpu1 = cpu_ticks (List.map (fun s -> s.pid) pipeline)
      and rcpu1 = cpu_ticks (List.map (fun s -> s.pid) router) in
      let after = List.map scrape d.servers in
      finish ();
      let ops = float_of_int (max 1 wb.ops) in
      let server_delta name =
        List.fold_left2 (fun acc b a -> acc + counter a name - counter b name) 0 before after
      in
      (* part 2: the same op stream through the server pipeline in-process *)
      let rp = replay wl ~dir:(o.work // "replay") ~ops:wb.ops_list in
      let rops = float_of_int (max 1 rp.r_ops) in
      let selfs = Spans.self_times rp.r_spans in
      let self_us name =
        match List.assoc_opt name selfs with
        | Some (t, _) -> float_of_int t /. 1e3 /. rops
        | None -> 0.
      in
      let ckpt = Spans.durations rp.r_spans "store.checkpoint" in
      Array.sort Int.compare ckpt;
      let ckpt_n = Array.length ckpt in
      let rcount name = float_of_int (List.assoc name rp.r_counters) in
      let cselfs = Spans.self_times tr.spans in
      let cself_us name =
        match List.assoc_opt name cselfs with
        | Some (t, _) -> float_of_int t /. 1e3 /. ops
        | None -> 0.
      in
      let pticks = fst pcpu1 + snd pcpu1 - fst pcpu0 - snd pcpu0 in
      let daemon_cpu = ticks_to_us pticks /. ops in
      let router_cpu = ticks_to_us (fst rcpu1 + snd rcpu1 - fst rcpu0 - snd rcpu0) /. ops in
      let server_layers =
        [ "codec.decode"; "mtree.vo_generate"; "mtree.apply"; "store.stage"; "store.checkpoint";
          "codec.encode"; "store.flush" ]
      in
      let replayed = List.fold_left (fun acc l -> acc +. self_us l) 0. server_layers in
      let lat_us = float_of_int (Array.fold_left ( + ) 0 wb.lat) /. 1e3 /. ops in
      let parts =
        List.map (fun l -> (l, cself_us l))
          [ "client.encode"; "client.decode"; "client.verify" ]
        @ List.map (fun l -> ("server." ^ l, self_us l)) server_layers
        @ [ ("daemon.loop", daemon_cpu -. replayed) ]
        @ (match wl.topology with Cluster _ -> [ ("router", router_cpu) ] | Single -> [])
      in
      let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
      let unattributed = lat_us -. attributed in
      Printf.printf "# accounting (%s): mean traced latency %.2f us/op over %d ops\n" wl.name lat_us
        wb.ops;
      List.iter
        (fun (l, v) -> Printf.printf "#   %-24s %10.2f us  %6.1f%%\n" l v (100. *. v /. lat_us))
        (parts @ [ ("unattributed", unattributed) ]);
      let p50a = percentile (sorted wa.lat) 0.5 and p50b = percentile (sorted wb.lat) 0.5 in
      let steal1 = Sysinfo.cpu_jiffies o.cpu in
      let steal_frac =
        let ds = fst steal1 - fst steal0 and dt = snd steal1 - snd steal0 in
        if dt > 0 then float_of_int ds /. float_of_int dt else 0.
      in
      ( [
          m "client.encode_us" "us" (cself_us "client.encode");
          m "client.decode_us" "us" (cself_us "client.decode");
          m "client.wait_us" "us" (cself_us "client.wait");
          m "client.verify_us" "us" (cself_us "client.verify");
          m "client.sha256_digests_per_op" "count" (float_of_int client_digests /. ops);
          m "crypto.sha256_us_per_kib" "us" sha_kib;
          m "crypto.sha256_us_per_block" "us" sha_block;
          m "crypto.server_digests_per_op" "count"
            (float_of_int (server_delta "crypto.sha256.digests") /. ops);
          m "crypto.server_hashed_bytes_per_op" "B"
            (float_of_int (server_delta "crypto.sha256.bytes") /. ops);
          m "mtree.vo_generate_us" "us" (self_us "mtree.vo_generate");
          m "mtree.apply_us" "us" (self_us "mtree.apply");
          m "mtree.node_rebuilds_per_op" "count" (rcount "mtree.node_rebuilds" /. rops);
          m "mtree.vo_bytes_per_op" "B" (float_of_int rp.r_vo_bytes /. rops);
          m "mtree.proof_depth" "count" (float_of_int rp.r_depth_sum /. rops);
          m "store.stage_us" "us" (self_us "store.stage");
          m "store.flush_us" "us" (self_us "store.flush");
          m "store.checkpoint_ms_p50" "ms" (if ckpt_n = 0 then 0. else ms_of_ns (percentile ckpt 0.5));
          m "store.checkpoint_ms_max" "ms"
            (if ckpt_n = 0 then 0. else ms_of_ns (float_of_int ckpt.(ckpt_n - 1)));
          m "store.checkpoints_per_kop" "count" (1000. *. rcount "store.checkpoints" /. rops);
          m "store.flushes_per_op" "count" (rcount "store.wal.flushes" /. rops);
          m "store.fsyncs_per_op" "count" (rcount "store.wal.fsyncs" /. rops);
          m "store.write_bytes_per_op" "B" (float_of_int rp.r_wchar /. rops);
          m "store.write_amp" "ratio"
            (float_of_int rp.r_wchar /. float_of_int (max 1 rp.r_user_bytes));
          m "store.disk_bytes_per_live_byte" "ratio"
            (float_of_int rp.r_disk_bytes /. float_of_int (max 1 rp.r_live_bytes));
          m "store.segment_rolls_per_kop" "count" (1000. *. rcount "store.segment_rolls" /. rops);
          m "codec.decode_us" "us" (self_us "codec.decode");
          m "codec.encode_us" "us" (self_us "codec.encode");
          m "daemon.cpu_us_per_op" "us" daemon_cpu;
          m "daemon.sys_frac" "ratio"
            (if pticks > 0 then float_of_int (snd pcpu1 - snd pcpu0) /. float_of_int pticks else 0.);
          m "daemon.loop_us" "us" (daemon_cpu -. replayed);
          m "router.cpu_us_per_op" "us" router_cpu;
          m "shard.cpu_us_per_op" "us"
            (match wl.topology with Cluster _ -> daemon_cpu | Single -> 0.);
          m "router.subops_per_op" "count" (float_of_int (server_delta "net.router.subops_sent") /. ops);
          m "trace.overhead_frac" "ratio" ((p50b -. p50a) /. p50a);
          m "trace.unattributed_frac" "ratio" (unattributed /. lat_us);
          m "host.steal_frac" "ratio" steal_frac;
        ],
        Some (tr.spans, rp.r_spans) )
    end
  in
  let oracle = oracle_check ~db0 cl in
  (match oracle with Error e -> note_failure cl e | Ok () -> ());
  (match spans_out with
  | Some (client_spans, replay_spans) ->
      (* one file pair per workload, overwritten by its next traced run *)
      let out part = Filename.dirname o.work // Printf.sprintf "spans-%s-%s.tsv" wl.name part in
      Spans.write client_spans (out "client");
      Spans.write replay_spans (out "replay")
  | None -> ());
  List.iter (fun f -> prerr_endline ("perfbench: failed " ^ f)) (List.rev cl.failures);
  let correct = cl.failed = 0 && Result.is_ok oracle in
  (correct, cl.attempted, cl.failed, metrics)

(* ---- Command line ---------------------------------------------------- *)

let usage =
  "tcvs_perfbench --workload W --seed N --seconds S --trace 0|1 [--ops N] [--corrupt-reply]\n\
  \  [--cpu N] [--rev R] [--src H] [--profile P]"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec kv acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k && not (String.equal k "--corrupt-reply") ->
        kv ((k, v) :: acc) rest
    | "--corrupt-reply" :: rest -> kv (("--corrupt-reply", "1") :: acc) rest
    | [] -> Ok acc
    | x :: _ -> Error ("unexpected argument " ^ x)
  in
  let opts = match kv [] args with Ok o -> o | Error e -> prerr_endline (e ^ "\n" ^ usage); exit 2 in
  let get k = List.assoc_opt k opts in
  let int_arg k d = match get k with Some v -> int_of_string v | None -> d in
  match get "--serve" with
  | Some role ->
      let shard_ports =
        match get "--shard-ports" with
        | Some s -> List.map int_of_string (String.split_on_char ',' s)
        | None -> []
      in
      let r =
        serve_main ~role ~dir:(Option.get (get "--dir")) ~files:(int_arg "--files" 32)
          ~shard:(int_arg "--shard" (-1)) ~shard_count:(int_arg "--shard-count" 1) ~shard_ports
      in
      (match r with
      | Ok () -> ()
      | Error e ->
          prerr_endline (role ^ ": " ^ e);
          exit 3)
  | None -> (
      let wl =
        match get "--workload" with
        | Some n -> List.find_opt (fun w -> String.equal w.name n) workloads
        | None -> None
      in
      match wl with
      | None ->
          prerr_endline
            ("unknown or missing --workload (one of: "
            ^ String.concat ", " (List.map (fun w -> w.name) workloads)
            ^ ")\n" ^ usage);
          exit 2
      | Some wl ->
          let work = ".perfbench_work" // Printf.sprintf "%s-%d" wl.name (Unix.getpid ()) in
          let rec mkdir_p d =
            if not (Sys.file_exists d) then begin
              mkdir_p (Filename.dirname d);
              Unix.mkdir d 0o755
            end
          in
          mkdir_p work;
          let o =
            {
              wl;
              seed = int_arg "--seed" 1;
              seconds = (match get "--seconds" with Some s -> float_of_string s | None -> 10.);
              trace = int_arg "--trace" 0 = 1;
              ops_budget = Option.map int_of_string (get "--ops");
              corrupt = get "--corrupt-reply" <> None;
              cpu = int_arg "--cpu" (-1);
              rev = Option.value (get "--rev") ~default:"unknown";
              src = Option.value (get "--src") ~default:"unknown";
              profile = Option.value (get "--profile") ~default:"unknown";
              work;
            }
          in
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          let code =
            match run o with
            | correct, attempted, failed, metrics ->
                print_endline (result_line ~correct ~attempted ~failed metrics);
                0
            | exception Run_failed e ->
                prerr_endline ("perfbench: " ^ e);
                1
            | exception e ->
                prerr_endline ("perfbench: " ^ Printexc.to_string e);
                1
          in
          Sysinfo.stop_all ();
          Sysinfo.rm_rf work;
          exit code)
