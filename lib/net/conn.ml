let obs_scope = Obs.Scope.v "net"
let c_frames_sent = Obs.counter ~scope:obs_scope "frames_sent"
let c_frames_received = Obs.counter ~scope:obs_scope "frames_received"
let c_bytes_sent = Obs.counter ~scope:obs_scope "bytes_sent"
let c_bytes_received = Obs.counter ~scope:obs_scope "bytes_received"
let c_decode_errors = Obs.counter ~scope:obs_scope "decode_errors"

(* Per-connection totals feeding the daemon's admin snapshot; the
   global [net.*] counters above stay the process-wide aggregates. *)
type io_stats = {
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
}

type t = {
  sock : Unix.file_descr;
  max_frame : int;
  mutable rbuf : string; (* received, not yet parsed *)
  mutable wbuf : string; (* encoded, not yet written *)
  mutable at_eof : bool;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let create ?(max_frame = Codec.default_max_frame) sock =
  Unix.set_nonblock sock;
  {
    sock;
    max_frame;
    rbuf = "";
    wbuf = "";
    at_eof = false;
    frames_in = 0;
    frames_out = 0;
    bytes_in = 0;
    bytes_out = 0;
  }

let io_stats t =
  {
    frames_in = t.frames_in;
    frames_out = t.frames_out;
    bytes_in = t.bytes_in;
    bytes_out = t.bytes_out;
  }

let fd t = t.sock
let eof t = t.at_eof

(* Single-threaded process: one scratch buffer serves every connection. *)
let scratch = Bytes.create 65536

(* Deep-lint justification: [create] puts every socket in nonblocking
   mode, so this Unix.read returns EAGAIN instead of stalling the
   select loop. *)
let[@tcvs.lint.allow "event-loop-purity"] fill t =
  if not t.at_eof then
    let rec loop () =
      match Unix.read t.sock scratch 0 (Bytes.length scratch) with
      | 0 -> t.at_eof <- true
      | n ->
          t.rbuf <- t.rbuf ^ Bytes.sub_string scratch 0 n;
          t.bytes_in <- t.bytes_in + n;
          Obs.incr c_bytes_received ~by:n;
          if n = Bytes.length scratch then loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (_, _, _) -> t.at_eof <- true
    in
    loop ()

let pop t =
  if String.length t.rbuf < Codec.header_len then Ok None
  else
    match
      Codec.decode_header ~max_frame:t.max_frame
        (String.sub t.rbuf 0 Codec.header_len)
    with
    | Error e ->
        Obs.incr c_decode_errors;
        Error e
    | Ok (len, checksum) ->
        if String.length t.rbuf < Codec.header_len + len then Ok None
        else begin
          let body = String.sub t.rbuf Codec.header_len len in
          t.rbuf <-
            String.sub t.rbuf (Codec.header_len + len)
              (String.length t.rbuf - Codec.header_len - len);
          match Codec.decode_body ~checksum body with
          | Ok f ->
              t.frames_in <- t.frames_in + 1;
              Obs.incr c_frames_received;
              Ok (Some f)
          | Error e ->
              Obs.incr c_decode_errors;
              Error e
        end

let send_encoded t bytes =
  t.frames_out <- t.frames_out + 1;
  Obs.incr c_frames_sent;
  t.wbuf <- t.wbuf ^ bytes

let send t frame = send_encoded t (Codec.encode_frame frame)

(* Deep-lint justification: nonblocking socket (see [fill]); a short
   write leaves the tail in wbuf for the next writable round. *)
let[@tcvs.lint.allow "event-loop-purity"] flush t =
  let len = String.length t.wbuf in
  if len > 0 && not t.at_eof then
    match Unix.write_substring t.sock t.wbuf 0 len with
    | n ->
        t.bytes_out <- t.bytes_out + n;
        Obs.incr c_bytes_sent ~by:n;
        t.wbuf <- String.sub t.wbuf n (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) -> t.at_eof <- true

let want_write t = String.length t.wbuf > 0 && not t.at_eof
let pending_out t = String.length t.wbuf
(* Marking eof here is load-bearing: a closed connection must never be
   offered to select again (EBADF), and the select loops prune on
   {!eof}. *)
let close t =
  t.at_eof <- true;
  try Unix.close t.sock with Unix.Unix_error _ -> ()
