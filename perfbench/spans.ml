(* In-memory span recorder for the traced run.

   A span is (name, start, stop, parent, op): nanosecond monotonic
   timestamps, the index of the enclosing span (-1 for a root) and the
   id of the operation it belongs to. Spans stay in flat growable
   arrays while the run measures and are written out once, at exit.
   A layer's self time is its spans' durations minus the parts of
   those intervals covered by their child spans. *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
}

let create () =
  let cap = 1024 in
  {
    ids = Hashtbl.create 32;
    names = [||];
    n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    op = Array.make cap 0;
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      t.names <- Array.append t.names [| s |];
      Hashtbl.replace t.ids s i;
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.op <- ext t.op

(* Record a finished span; returns its index (a parent handle for
   spans recorded after it). *)
let add t ~name ~start ~stop ~parent ~op =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.op.(i) <- op;
  t.n <- i + 1;
  i

(* A parent is recorded before its children are known: open it with a
   provisional stop and close it when the op completes. *)
let close t i ~stop = t.stop.(i) <- stop

(* Total self time (ns) and span count per name. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.stop.(i) - t.start.(i)) in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(i) - t.start.(i))
  done;
  let k = Array.length t.names in
  let total = Array.make k 0 and count = Array.make k 0 in
  for i = 0 to t.n - 1 do
    total.(t.name.(i)) <- total.(t.name.(i)) + self.(i);
    count.(t.name.(i)) <- count.(t.name.(i)) + 1
  done;
  Array.to_list (Array.mapi (fun j s -> (s, (total.(j), count.(j)))) t.names)

(* Durations (ns) of every span with this name, in record order. *)
let durations t name =
  match Hashtbl.find_opt t.ids name with
  | None -> [||]
  | Some id ->
      let acc = ref [] in
      for i = t.n - 1 downto 0 do
        if t.name.(i) = id then acc := (t.stop.(i) - t.start.(i)) :: !acc
      done;
      Array.of_list !acc

(* One tab-separated line per span: op, name, start, stop, parent. *)
let write t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "op\tname\tstart_ns\tstop_ns\tparent\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" t.op.(i) t.names.(t.name.(i))
          t.start.(i) t.stop.(i) t.parent.(i)
      done)
