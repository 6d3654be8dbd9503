(* What the benchmark reads about its own processes and the machine. *)

let now = Unix.gettimeofday

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let s = In_channel.input_all ic in
      close_in ic;
      Some s

(* Peak resident set ("VmHWM") of a process, in MB; 0 when the process
   is gone or the kernel does not report it. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0
        (String.split_on_char '\n' s)

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* Direct children of [pid], from the kernel's per-task list. *)
let children pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | None -> []
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ' ' (String.trim s))

(* A fixed float loop owned by the benchmark: host-speed context for a
   run's figures, not a metric of the program. *)
let float_loop_s () =
  let t0 = now () in
  let acc = ref 0.0 in
  for i = 1 to 50_000_000 do
    acc := !acc +. (1.0 /. float_of_int i)
  done;
  if !acc < 0.0 then print_string "";
  now () -. t0

(* Run [f] in a forked child and return what it marshals back: a cold
   process for every call, as a fresh `certify` invocation would be. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      (try Marshal.to_channel oc (Ok (f ()) : ('a, string) result) []
       with e -> Marshal.to_channel oc (Error (Printexc.to_string e) : ('a, string) result) []);
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic : ('a, string) result) with End_of_file -> None in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match v with
      | Some (Ok x) -> x
      | Some (Error e) -> failwith ("child: " ^ e)
      | None -> failwith "child died without an answer")
