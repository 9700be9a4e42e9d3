(* /proc readers and child-process plumbing for the benchmark load generator.
   Everything here is Linux-specific by design: the benchmark measures
   CPU time, peak RSS, write syscalls and host steal from the kernel's
   own accounting. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* USER_HZ: the unit of utime/stime in /proc/<pid>/stat. The kernel
   fixes it at 100 on every Linux ABI this benchmark targets. *)
let clk_tck = 100.

(* (utime, stime) in clock ticks. The command name (field 2) may hold
   spaces, so fields are counted from the closing parenthesis. *)
let cpu_ticks pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  let f =
    String.sub s (i + 2) (String.length s - i - 2)
    |> String.split_on_char ' ' |> Array.of_list
  in
  (* f.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  (int_of_string f.(11), int_of_string f.(12))

let status_kb pid key =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let prefix = key ^ ":" in
  String.split_on_char '\n' s
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           let v =
             String.sub line (String.length prefix)
               (String.length line - String.length prefix)
             |> String.trim
           in
           Scanf.sscanf_opt v "%d" Fun.id
         else None)
  |> Option.value ~default:0

(* Bytes this process passed to write-family syscalls, sockets
   included — callers measure windows with no socket traffic. *)
let wchar_self () =
  let s = read_file "/proc/self/io" in
  String.split_on_char '\n' s
  |> List.find_map (fun line -> Scanf.sscanf_opt line "wchar: %d" Fun.id)
  |> Option.value ~default:0

(* (steal, total) jiffies of one CPU's /proc/stat line; the aggregate
   line when [cpu < 0]. *)
let cpu_jiffies cpu =
  let name = if cpu < 0 then "cpu" else Printf.sprintf "cpu%d" cpu in
  read_file "/proc/stat" |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | n :: fields when String.equal n name ->
             let v = List.map int_of_string fields in
             let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
             (* guest time is already counted inside user time *)
             let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
             Some (steal, total)
         | _ -> None)
  |> Option.value ~default:(0, 0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

(* ---- Child processes ------------------------------------------------- *)

(* Every server process the load generator started and has not yet reaped. *)
let children : int list ref = ref []

(* Stop a child: SIGTERM (the servers drain and exit), then SIGKILL
   if it lingers; always reaped before returning. *)
let stop_child pid =
  children := List.filter (( <> ) pid) !children;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop_all () = List.iter stop_child !children

(* Port files without sleep-polling. The servers publish their bound
   port by writing [path ^ ".tmp"] and renaming it to [path]. Making
   that [.tmp] a FIFO which the load generator holds open read-write lets the
   server's write complete at once and wakes the load generator's [select] the
   moment the port is known — so set-up time is measured exactly. *)
let port_pipe path =
  let fifo = path ^ ".tmp" in
  Unix.mkfifo fifo 0o600;
  Unix.openfile fifo [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let await_port fd ~pid ~timeout =
  let buf = Buffer.create 16 in
  let chunk = Bytes.create 64 in
  let deadline = Unix.gettimeofday () +. timeout in
  let child_gone () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error _ -> true
  in
  let rec loop () =
    if String.contains (Buffer.contents buf) '\n' then
      int_of_string_opt (String.trim (Buffer.contents buf))
      |> Option.to_result ~none:"unreadable port file"
    else if Unix.gettimeofday () > deadline then Error "no port before timeout"
    else
      match Unix.select [ fd ] [] [] 0.5 with
      | [], _, _ -> if child_gone () then Error "server exited during set-up" else loop ()
      | _ ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  let r = loop () in
  Unix.close fd;
  r

(* A port file written with an ordinary tmp+rename, read once it
   exists (the admin port files, published right after the listen
   port and needed only after the timed set-up). *)
let read_port_file path ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    match int_of_string_opt (String.trim (read_file path)) with
    | Some p -> Ok p
    | None | (exception Sys_error _) ->
        if Unix.gettimeofday () > deadline then Error ("no port in " ^ path)
        else begin
          Unix.sleepf 0.001;
          loop ()
        end
  in
  loop ()

let loopback_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Unix.error_message e)

(* One admin scrape: connect, read the JSON snapshot to EOF, return
   its registry counters. *)
let scrape_counters port =
  match loopback_connect port with
  | Error e -> Error e
  | Ok fd -> (
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      in
      drain ();
      Unix.close fd;
      match Obs.Json.parse (Buffer.contents buf) with
      | Error e -> Error ("admin snapshot: " ^ e)
      | Ok doc -> (
          match
            Option.bind (Obs.Json.member "registry" doc) (Obs.Json.member "counters")
          with
          | Some (Obs.Json.Obj kvs) ->
              Ok
                (List.filter_map
                   (fun (k, v) -> match v with Obs.Json.Int n -> Some (k, n) | _ -> None)
                   kvs)
          | _ -> Error "admin snapshot without registry counters"))
