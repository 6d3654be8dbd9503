(* The traced mode's records: spans kept in memory and written out at
   the end, and per-op totals folded from the interpreter's event
   stream ([Interp.event]). *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let spans : span list ref = ref []
let next_id = ref 1

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

(* [id] lets a parent be recorded after its children, once it ends. *)
let span ?(id = fresh_id ()) ~parent name ~start ~stop =
  spans := { id; parent; name; start; stop } :: !spans;
  id

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.parent s.name s.start s.stop)
    (List.rev !spans);
  close_out oc

(* Per-op totals of one or more propagations. Plain data, so a forked
   worker can return it with its job result. *)
type ops = {
  mutable kind_s : (string * float) list;  (** summed transformer time *)
  mutable eps_peak : int;  (** most live ε symbols on any op output *)
  mutable density_sum : float;
  mutable events : int;
  mutable probe_s : float list;  (** one entry per finished propagation *)
  mutable cur_probe : float;
  mutable last_op : int;
  mutable op_spans : (string * float * float) list;  (** kind, start, end *)
}

let ops () =
  {
    kind_s = [];
    eps_peak = 0;
    density_sum = 0.0;
    events = 0;
    probe_s = [];
    cur_probe = 0.0;
    last_op = max_int;
    op_spans = [];
  }

(* A propagation walks the ops in increasing order, so an op index that
   does not increase starts the next one. *)
let close_probe o =
  if o.last_op <> max_int then o.probe_s <- o.cur_probe :: o.probe_s;
  o.cur_probe <- 0.0;
  o.last_op <- max_int

let sink o : Interp.sink =
 fun ev ->
  let t = Unix.gettimeofday () in
  if ev.Interp.op_index <= o.last_op && o.last_op <> max_int then close_probe o;
  o.last_op <- ev.Interp.op_index;
  o.cur_probe <- o.cur_probe +. ev.Interp.wall_s;
  let prev = try List.assoc ev.Interp.kind o.kind_s with Not_found -> 0.0 in
  o.kind_s <- (ev.Interp.kind, prev +. ev.Interp.wall_s) :: List.remove_assoc ev.Interp.kind o.kind_s;
  if ev.Interp.size > o.eps_peak then o.eps_peak <- ev.Interp.size;
  o.density_sum <- o.density_sum +. ev.Interp.density;
  o.events <- o.events + 1;
  o.op_spans <- (ev.Interp.kind, t -. ev.Interp.wall_s, t) :: o.op_spans

let merge into o =
  close_probe o;
  List.iter
    (fun (k, s) ->
      let prev = try List.assoc k into.kind_s with Not_found -> 0.0 in
      into.kind_s <- (k, prev +. s) :: List.remove_assoc k into.kind_s)
    o.kind_s;
  into.eps_peak <- max into.eps_peak o.eps_peak;
  into.density_sum <- into.density_sum +. o.density_sum;
  into.events <- into.events + o.events;
  into.probe_s <- o.probe_s @ into.probe_s

(* Record [o]'s op spans under [parent] and drop them from [o]. *)
let adopt_op_spans ~parent o =
  List.iter
    (fun (k, start, stop) -> ignore (span ~parent ("op:" ^ k) ~start ~stop))
    (List.rev o.op_spans);
  o.op_spans <- []

let kind_ms_per_query o kind ~queries =
  if queries = 0 then 0.0
  else 1000.0 *. (try List.assoc kind o.kind_s with Not_found -> 0.0) /. float_of_int queries

let density_mean o =
  if o.events = 0 then 0.0 else o.density_sum /. float_of_int o.events
