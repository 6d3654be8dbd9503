(* Set-up, the result line and the bookkeeping every workload shares. *)

module Mat = Tensor.Mat

type loaded = { model : Nn.Model.t; program : Ir.program; corpus : Text.Corpus.t }

type input = { query : Gen.query; x : Mat.t; label : int }

(* Stop before set-up when a model file is missing: [Zoo.load_or_train]
   would otherwise train it silently and the set-up time would be a
   training time. *)
let require_models names =
  List.iter
    (fun name ->
      let path = Zoo.path (Zoo.entry name) in
      if not (Sys.file_exists path) then begin
        Printf.eprintf
          "perfbench: model file %s is missing (the benchmark never trains)\n%!"
          path;
        exit 2
      end)
    names

(* The cold part of a certification: read the model files, lower to IR
   and embed the inputs. The corpora are built when [Zoo] is
   initialised, at the start of every process that links it. *)
let set_up queries =
  let models =
    List.map
      (fun name ->
        let e = Zoo.entry name in
        let model = Nn.Model.load (Zoo.path e) in
        let corpus = Zoo.corpus_of e.Zoo.corpus in
        (name, { model; program = Nn.Model.to_ir model; corpus }))
      (Gen.models_of queries)
  in
  let inputs =
    List.map
      (fun (q : Gen.query) ->
        let l = List.assoc q.Gen.model models in
        let toks, label = List.nth l.corpus.Text.Corpus.test q.Gen.index in
        { query = q; x = Nn.Model.embed_tokens l.model toks; label })
      queries
  in
  (models, inputs)

(* Run this executable afresh with [args], its standard output sent to
   standard error so that the result line stays the last one. *)
let spawn_self args =
  flush_all ();
  Unix.create_process Sys.executable_name
    (Array.of_list (Sys.executable_name :: args))
    Unix.stdin Unix.stderr Unix.stderr

(* [n] cold set-ups of a workload, each a fresh process of this
   executable that sets up ([--set-up-only]) and exits, timed from the
   spawn until it has exited. Like a `certify` invocation it pays the
   start-up, the corpora [Zoo] builds at initialisation and [set_up].
   The workloads take these samples at several points of a run, so
   that the reported median spans the run's changes of host speed. *)
let set_up_samples ~n ~workload ~seed =
  List.init n (fun _ ->
      let t0 = Host.now () in
      let pid =
        spawn_self [ "--workload"; workload; "--seed"; string_of_int seed; "--set-up-only" ]
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Host.now () -. t0
      | _ -> failwith "a cold set-up failed")

let program_of models (i : input) = (List.assoc i.query.Gen.model models).program

let region (i : input) =
  Deept.Region.lp_ball ~p:i.query.Gen.p i.x ~word:i.query.Gen.word
    ~radius:i.query.Gen.radius

(* Rounds of the fixed query list in a run: a function of the run length
   alone, so the work of a run does not depend on the host's speed. A
   traced run alternates untraced and traced rounds, so it has two at
   least. *)
let rounds ~seconds ~nominal ~trace =
  let r = max 1 (int_of_float (Float.round (seconds /. nominal))) in
  if trace then max 2 r else r

(* ---- checks ------------------------------------------------------- *)

let problems = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        prerr_endline ("perfbench: check failed: " ^ msg);
        problems := msg :: !problems
      end)
    fmt

(* ---- metrics ------------------------------------------------------ *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("queries_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("radius_geomean", "radius");
    ("certified_queries", "count");
    ("peak_rss_mb", "MB");
  ]

let per_layer_units =
  [
    ("psearch.propagations_per_query", "count");
    ("psearch.probe_ms_p50", "ms");
    ("interp.self_attention_ms_per_query", "ms");
    ("interp.linear_ms_per_query", "ms");
    ("interp.add_ms_per_query", "ms");
    ("interp.center_norm_ms_per_query", "ms");
    ("interp.relu_ms_per_query", "ms");
    ("interp.eps_symbols_peak", "count");
    ("interp.density_mean", "fraction");
    ("gc.alloc_mb_per_query", "MB");
    ("gc.major_collections_per_query", "count");
    ("engine.attempts_per_query", "count");
    ("engine.up_walks", "count");
    ("brefine.branches_per_refined_query", "count");
    ("supervisor.overhead_ms_p50", "ms");
    ("server.overhead_ms_p50", "ms");
    ("server.overhead_ms_p90", "ms");
    ("server.worker_ms_p50", "ms");
    ("server.latency_p90_ms", "ms");
    ("server.queue_depth_max", "count");
    ("server.utilization", "fraction");
    ("cache.hit_ratio", "fraction");
    ("client.lateness_ms_max", "ms");
    ("warm.load_ms", "ms");
    ("trace.qps_ratio", "ratio");
  ]

let interp_kinds = [ "self_attention"; "linear"; "add"; "center_norm"; "relu" ]

let interp_metrics ops ~queries =
  List.map
    (fun k -> ("interp." ^ k ^ "_ms_per_query", Trace.kind_ms_per_query ops k ~queries))
    interp_kinds
  @ [
      ("interp.eps_symbols_peak", float_of_int ops.Trace.eps_peak);
      ("interp.density_mean", Trace.density_mean ops);
    ]

let gc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

type gc_delta = { alloc_mb : float; majors : int }

(* Allocation and major collections of one call, read around it. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      alloc_mb = (gc_words g1 -. gc_words g0) *. 8.0 /. 1e6;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let gc_metrics ds =
  let n = float_of_int (max 1 (List.length ds)) in
  [
    ("gc.alloc_mb_per_query", List.fold_left (fun s d -> s +. d.alloc_mb) 0.0 ds /. n);
    ( "gc.major_collections_per_query",
      float_of_int (List.fold_left (fun s d -> s + d.majors) 0 ds) /. n );
  ]

type result = {
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;
  per_layer : (string * float) list;  (** traced runs only *)
}

(* The last line of standard output. A layer that a workload does not
   reach reads 0 in its traced run. *)
let print_result ~trace r =
  let units, values =
    if trace then (per_layer_units, r.per_layer) else (end_to_end_units, r.end_to_end)
  in
  let metric (name, unit) =
    let v =
      match List.assoc_opt name values with
      | Some v -> v
      | None when trace -> 0.0
      | None -> failwith ("no value for " ^ name)
    in
    if not (Float.is_finite v) then failwith (Printf.sprintf "%s is not finite" name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = []) r.attempted r.failed
    (String.concat ", " (List.map metric units))
