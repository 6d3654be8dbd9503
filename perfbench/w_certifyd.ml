(* certifyd_open: the daemon ([Service.Server.run]) in a fresh process
   with one worker per core, driven open-loop by one client select loop. *)

open Common
module P = Service.Protocol

let served = [ "small_3"; "sst_3" ]

(* ---- line I/O on the daemon's Unix socket -------------------------- *)

let rec write_all fd b off len =
  if len > 0 then
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)

let send fd req =
  let b = Bytes.of_string (P.request_to_json req ^ "\n") in
  write_all fd b 0 (Bytes.length b)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let conn fd = { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }

(* Complete lines now readable; blocks only when none is buffered. *)
let read_lines c =
  let k = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if k = 0 then raise End_of_file;
  Buffer.add_subbytes c.buf c.chunk 0 k;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
      List.filter (( <> ) "") (String.split_on_char '\n' (String.sub s 0 last))

let decode line =
  match P.response_of_json line with
  | Ok r -> r
  | Error e -> failwith ("undecodable response: " ^ e)

(* Read responses until [f] accepts one; the others are dropped. *)
let rec await c f =
  match List.find_map (fun l -> f (decode l)) (read_lines c) with
  | Some v -> v
  | None -> await c f

(* ---- daemon life cycle -------------------------------------------- *)

type daemon = { pid : int; c : conn; journal : string }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* The daemon, as `certifyd` runs it but for the socket and journal
   under [prefix]: one worker per core and the default queue cap, so a
   slowdown that saturates the workers sheds requests. *)
let serve prefix =
  Service.Server.run
    (Service.Server.opts
       ~pool:(Deept.Config.pool ~workers:(Domain.recommended_domain_count ()) ())
       ~journal:(prefix ^ ".jsonl") ~log:(fun _ -> ()) ~socket:(prefix ^ ".sock") served)

(* Start a daemon in a fresh process of this executable ([--serve]) and
   time it from the spawn until its socket accepts: a cold start, which
   builds the corpora and warms the models as `certifyd` does. *)
let start ~dir tag =
  let prefix = Filename.concat dir tag in
  let socket = prefix ^ ".sock" and journal = prefix ^ ".jsonl" in
  let t0 = Host.now () in
  let pid = spawn_self [ "--serve"; prefix ] in
  let rec connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "the daemon exited before accepting");
        if Host.now () -. t0 > 60.0 then failwith "the daemon never accepted";
        Unix.sleepf 0.0002;
        connect ()
  in
  let fd = connect () in
  ({ pid; c = conn fd; journal }, Host.now () -. t0)

let stop d =
  send d.c.fd P.Shutdown;
  (try ignore (await d.c (function P.Ok_ack -> Some () | _ -> None)) with End_of_file -> ());
  Unix.close d.c.fd;
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "the daemon did not exit cleanly"

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

let certify_of (q : Gen.query) ~tag =
  P.certify ~word:q.Gen.word ~p:q.Gen.p ~verifier:Deept.Config.Fast ~tag ~model:q.Gen.model
    ~radius:q.Gen.radius (P.Index q.Gen.index)

(* ---- the in-process pass: Engine.certify on every computed query --- *)

type check = {
  verdict : Deept.Verdict.t;
  rung : string;
  cex : bool;  (** a certified region held a misclassified point *)
  engine_s : float;
  started : float;
  gc : gc_delta;
  ops : Trace.ops option;
}

(* Jobs are [(k, `Check | `Untraced | `Traced)] on [inputs.(k)]: a
   checked job also samples and attacks a certified region; the other
   two only time the call, for the tracing-overhead ratio. *)
let in_process models inputs jobs =
  let worker _ (k, mode) =
    let (i : input) = inputs.(k) in
    let traced = mode = `Traced in
    let c = certify_of i.query ~tag:k in
    let ops = if traced then Some (Trace.ops ()) else None in
    let cfg = P.base_config c in
    let cfg = match ops with Some o -> Deept.Config.with_trace (Some (Trace.sink o)) cfg | None -> cfg in
    let program = program_of models i in
    let t0 = Host.now () in
    let o, gc = with_gc (fun () -> Deept.Engine.certify cfg program (region i) ~true_class:i.label) in
    let engine_s = Host.now () -. t0 in
    let q = i.query in
    let cex =
      mode = `Check
      && Deept.Verdict.is_certified o.Deept.Engine.verdict
      && Oracle.counterexample ~seed:k ~steps:10 ~restarts:1 program ~p:q.Gen.p i.x
           ~word:q.Gen.word ~radius:q.Gen.radius ~true_class:i.label
         <> None
    in
    { verdict = o.Deept.Engine.verdict; rung = o.Deept.Engine.rung_name; cex; engine_s; started = t0; gc; ops }
  in
  Deept.Supervisor.run
    ~pool:(Deept.Config.pool ~workers:(Domain.recommended_domain_count ()) ())
    ~worker
    (List.mapi (fun j job -> (j, job)) jobs)

(* ---- the workload ------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  require_models served;
  let sched = Array.of_list (Gen.certifyd_schedule ~seed ~seconds) in
  let n = Array.length sched in
  let dir = Filename.concat "_perfbench" (Printf.sprintf "certifyd-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  (* Set-up: cold daemon starts; the last of the first four serves the
     workload. *)
  let setups = ref [] in
  let starts = ref 0 in
  let rec cold_starts k =
    incr starts;
    let d, s = start ~dir (Printf.sprintf "d%d" !starts) in
    setups := s :: !setups;
    if k = 1 then d
    else begin
      stop d;
      cold_starts (k - 1)
    end
  in
  let d = cold_starts 4 in
  let live = ref (Some d) in
  Fun.protect
    ~finally:(fun () ->
      (match !live with Some d -> kill d | None -> ());
      rm_rf dir)
    (fun () ->
      let sent = Array.make n nan and recv = Array.make n nan in
      let res : P.result_r option array = Array.make n None in
      let failed = ref 0 and got = ref 0 and qmax = ref 0 and polls = ref 0 in
      let t_start = Host.now () +. 0.05 in
      let due k = t_start +. sched.(k).Gen.due in
      let next = ref 0 and next_poll = ref t_start in
      let give_up = due (n - 1) +. 120.0 in
      let handle = function
        | P.Result r -> (
            match r.P.tag with
            | Some k when k >= 0 && k < n && res.(k) = None ->
                recv.(k) <- Host.now ();
                res.(k) <- Some r;
                incr got
            | _ -> failwith "result with an unknown tag")
        | P.Stats_r s ->
            decr polls;
            qmax := max !qmax s.P.queue_depth
        | P.Overloaded { tag = Some k; _ } | P.Quarantined { tag = Some k; _ } ->
            if k >= 0 && k < n then recv.(k) <- Host.now ();
            incr failed;
            incr got
        | P.Error e -> failwith ("daemon error: " ^ e)
        | _ -> failwith "unexpected response"
      in
      while !got < n do
        if Host.now () > give_up then failwith "responses overdue";
        while !next < n && due !next <= Host.now () do
          sent.(!next) <- Host.now ();
          send d.c.fd (P.Certify (certify_of sched.(!next).Gen.query ~tag:!next));
          incr next
        done;
        if trace && Host.now () >= !next_poll then begin
          send d.c.fd P.Stats;
          incr polls;
          next_poll := !next_poll +. 0.25
        end;
        let wake =
          Float.min
            (if !next < n then due !next else infinity)
            (if trace then !next_poll else infinity)
        in
        let timeout = if wake = infinity then 1.0 else Float.max 0.0 (wake -. Host.now ()) in
        match Unix.select [ d.c.fd ] [] [] timeout with
        | [], _, _ -> ()
        | _ -> List.iter (fun l -> handle (decode l)) (read_lines d.c)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      let t_end = Array.fold_left Float.max t_start recv in
      (* the answers to earlier polls first, then the final counters *)
      while !polls > 0 do
        List.iter (fun l -> handle (decode l)) (read_lines d.c)
      done;
      send d.c.fd P.Stats;
      let stats = await d.c (function P.Stats_r s -> Some s | _ -> None) in
      let rss = List.fold_left (fun s pid -> s +. Host.peak_rss_mb pid) 0.0 (d.pid :: Host.children d.pid) in
      stop d;
      live := None;
      (* four more cold starts after the workload, so that the set-up
         median spans the run *)
      let d' = cold_starts 4 in
      live := Some d';
      stop d';
      live := None;
      let results = Array.to_list res |> List.filter_map Fun.id in
      (* Journal: every job id exactly once. *)
      let journaled = List.map (fun e -> e.Deept.Journal.job) (Deept.Journal.load d.journal) in
      let ids = List.sort compare (List.map (fun r -> r.P.id) results) in
      check (List.sort compare journaled = ids && List.sort_uniq compare ids = ids)
        "the journal does not hold every job id exactly once (%d lines, %d results)"
        (List.length journaled) (List.length ids);
      (* Cached results equal their cold results. *)
      let cold = Hashtbl.create 256 in
      Array.iteri
        (fun k r ->
          match r with
          | Some r when not r.P.cached -> Hashtbl.replace cold (Gen.key sched.(k).Gen.query) r
          | _ -> ())
        res;
      Array.iteri
        (fun k r ->
          match r with
          | Some r when r.P.cached -> (
              let key = Gen.key sched.(k).Gen.query in
              match Hashtbl.find_opt cold key with
              | Some c ->
                  check
                    (Deept.Verdict.equal c.P.verdict r.P.verdict && c.P.rung = r.P.rung)
                    "%s: cached result differs from its cold result" key
              | None -> check false "%s: cache hit without a cold result" key)
          | Some _ when sched.(k).Gen.cls = Gen.Repeat ->
              Printf.eprintf "perfbench: note: repeat %d of %s missed the cache\n%!" k
                (Gen.key sched.(k).Gen.query)
          | _ -> ())
        res;
      (* Every computed verdict against Engine.certify in this process. *)
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) cold [] |> List.sort compare in
      let by_key = Hashtbl.create 256 in
      Array.iter (fun r -> Hashtbl.replace by_key (Gen.key r.Gen.query) r.Gen.query) sched;
      let queries = List.map (Hashtbl.find by_key) keys in
      let models, inputs = set_up queries in
      let inputs = Array.of_list inputs in
      let pass jobs =
        List.map2
          (fun (k, _) (r : check Deept.Supervisor.job_result) ->
            match r.Deept.Supervisor.outcome with
            | Ok c -> (k, c)
            | Error f -> failwith ("in-process pass: " ^ Deept.Supervisor.failure_detail f))
          jobs (in_process models inputs jobs)
      in
      let all = List.init (Array.length inputs) Fun.id in
      let checks = pass (List.map (fun k -> (k, `Check)) all) in
      List.iter
        (fun (k, c) ->
          let key = Gen.key inputs.(k).query in
          let r = Hashtbl.find cold key in
          check
            (Deept.Verdict.equal c.verdict r.P.verdict && c.rung = r.P.rung)
            "%s: the daemon said %s@%s, Engine.certify says %s@%s" key
            (Deept.Verdict.to_string r.P.verdict) r.P.rung (Deept.Verdict.to_string c.verdict) c.rung;
          check (not c.cex) "%s: certified, yet a misclassified point was found" key)
        checks;
      let lat_ms = List.init n (fun k -> (recv.(k) -. due k) *. 1000.0) in
      check (Stats.tail_percentile n >= Some 90.0)
        "%d requests leave fewer than ten beyond p90" n;
      let certified =
        List.filter_map
          (fun k ->
            match res.(k) with
            | Some r when Deept.Verdict.is_certified r.P.verdict -> Some sched.(k).Gen.query.Gen.radius
            | _ -> None)
          (List.init n Fun.id)
      in
      let computed = List.filter (fun k -> match res.(k) with Some r -> not r.P.cached | None -> false) (List.init n Fun.id) in
      let wall k = match res.(k) with Some r -> r.P.wall_s | None -> 0.0 in
      let overhead = List.map (fun k -> (recv.(k) -. sent.(k) -. wall k) *. 1000.0) computed in
      (* the share of the run the workers spent computing *)
      let utilization =
        List.fold_left (fun s k -> s +. wall k) 0.0 computed
        /. (float_of_int (Domain.recommended_domain_count ()) *. (t_end -. t_start))
      in
      let per_layer () =
        flush_all ();
        let run_span = Trace.fresh_id () in
        Array.iteri
          (fun k r ->
            ignore
              (Trace.span ~parent:run_span
                 (Printf.sprintf "request:%s:%s" (Gen.cls_name r.Gen.cls) (Gen.key r.Gen.query))
                 ~start:(due k) ~stop:recv.(k)))
          sched;
        (* untraced and traced runs of every query, interleaved so that
           both see the same host *)
        let timed = pass (List.concat_map (fun k -> [ (k, `Untraced); (k, `Traced) ]) all) in
        let untraced = List.filter (fun (_, c) -> c.ops = None) timed in
        let traced = List.filter (fun (_, c) -> c.ops <> None) timed in
        let ops = Trace.ops () in
        List.iter
          (fun (k, c) ->
            match c.ops with
            | Some o ->
                let s =
                  Trace.span ~parent:run_span ("verify:" ^ Gen.key inputs.(k).query) ~start:c.started
                    ~stop:(c.started +. c.engine_s)
                in
                Trace.adopt_op_spans ~parent:s o;
                Trace.merge ops o
            | None -> ())
          traced;
        ignore (Trace.span ~id:run_span ~parent:0 "run:certifyd_open" ~start:t_start ~stop:t_end);
        let sum l = List.fold_left (fun s (_, c) -> s +. c.engine_s) 0.0 l in
        let warm_ms =
          Stats.median
            (List.init 3 (fun _ ->
                 Host.in_child (fun () ->
                     let t0 = Host.now () in
                     ignore (Service.Warm.load served);
                     (Host.now () -. t0) *. 1000.0)))
        in
        let lookups = stats.P.cache_hits + stats.P.cache_misses in
        [
          ("engine.attempts_per_query", Stats.mean (List.filter_map (fun k -> Option.map (fun r -> float_of_int r.P.attempts) res.(k)) computed));
          ("server.overhead_ms_p50", Stats.median overhead);
          ("server.overhead_ms_p90", Stats.percentile overhead 90.0);
          ("server.worker_ms_p50", Stats.median (List.map (fun k -> wall k *. 1000.0) computed));
          ("server.latency_p90_ms", Stats.percentile lat_ms 90.0);
          ("server.queue_depth_max", float_of_int !qmax);
          ("server.utilization", utilization);
          ("cache.hit_ratio", float_of_int stats.P.cache_hits /. float_of_int (max 1 lookups));
          ( "client.lateness_ms_max",
            1000.0 *. List.fold_left Float.max 0.0 (List.init n (fun k -> sent.(k) -. due k)) );
          ("warm.load_ms", warm_ms);
          ("trace.qps_ratio", sum untraced /. sum traced);
        ]
        @ interp_metrics ops ~queries:(List.length traced)
        @ gc_metrics (List.map (fun (_, c) -> c.gc) checks)
      in
      Printf.printf
        "certifyd_open: %d requests, %d computed, %.1f req/s scheduled, worker utilization %.3f, client lateness max %.2f ms\n%!"
        n (List.length computed) Gen.rate utilization
        (1000.0 *. List.fold_left Float.max 0.0 (List.init n (fun k -> sent.(k) -. due k)));
      {
        attempted = n;
        failed = !failed;
        end_to_end =
          [
            ("setup_s", Stats.median !setups);
            ("queries_per_s", float_of_int n /. (t_end -. t_start));
            ("latency_p50_ms", Stats.median lat_ms);
            ("radius_geomean", Stats.geomean certified);
            ("certified_queries", float_of_int (List.length certified));
            ("peak_rss_mb", rss);
          ];
        per_layer = (if trace then per_layer () else []);
      })
