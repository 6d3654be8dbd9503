(* precise_batch: fixed-radius DeepT-Precise jobs with refinement on,
   through the supervised worker pool, shaped like `certify batch`. *)

open Common

(* Round length of the fixed list on a 2-core host (see README). *)
let nominal_round_s = 14.0
let cfg = Deept.Config.with_refine (Some Deept.Config.default_refine) Deept.Config.precise

(* What the worker returns with each job: the outcome and what it
   measured around the call into [Engine.certify]. *)
type job = {
  outcome : Deept.Engine.outcome;
  started : float;
  engine_s : float;
  gc : gc_delta;
  rss_mb : float;
  ops : Trace.ops option;
}

let worker models inputs ~traced _id k =
  let i = inputs.(k) in
  let ops = if traced then Some (Trace.ops ()) else None in
  let cfg = match ops with Some o -> Deept.Config.with_trace (Some (Trace.sink o)) cfg | None -> cfg in
  let t0 = Host.now () in
  let outcome, gc =
    with_gc (fun () -> Deept.Engine.certify cfg (program_of models i) (region i) ~true_class:i.label)
  in
  let engine_s = Host.now () -. t0 in
  { outcome; started = t0; engine_s; gc; rss_mb = Host.self_peak_rss_mb (); ops }

let has_up (o : Deept.Engine.outcome) =
  List.exists (fun a -> a.Deept.Engine.direction = Deept.Engine.Up) o.Deept.Engine.attempts

let run ~seed ~seconds ~trace =
  let queries = Gen.precise_jobs ~seed in
  require_models (Gen.models_of queries);
  let models, inputs = set_up queries in
  let set_up_samples () = set_up_samples ~n:5 ~workload:"precise_batch" ~seed in
  let setups = ref (set_up_samples ()) in
  let inputs = Array.of_list inputs in
  let n = Array.length inputs in
  let n_rounds = rounds ~seconds ~nominal:nominal_round_s ~trace in
  let pool = Deept.Config.pool ~workers:1 () in
  let run_span = Trace.fresh_id () and run_start = Host.now () in
  let lat_ms = ref [] and overhead_ms = ref [] and gcs = ref [] and rss = ref 0.0 in
  let ops = Trace.ops () in
  let untraced_s = ref 0.0 and untraced_q = ref 0 and traced_s = ref 0.0 and traced_q = ref 0 in
  let attempts = ref [] and failed = ref 0 in
  let first = Array.make n None in
  for round = 1 to n_rounds do
    let traced = trace && round mod 2 = 0 in
    let t0 = Host.now () in
    let results =
      Deept.Supervisor.run ~pool ~worker:(worker models inputs ~traced)
        (List.init n (fun k -> (k, k)))
    in
    let dt = Host.now () -. t0 in
    setups := set_up_samples () @ !setups;
    if traced then (traced_s := !traced_s +. dt; traced_q := !traced_q + n)
    else (untraced_s := !untraced_s +. dt; untraced_q := !untraced_q + n);
    List.iter
      (fun (r : job Deept.Supervisor.job_result) ->
        let k = r.Deept.Supervisor.job in
        let key = Gen.key inputs.(k).query in
        lat_ms := (r.Deept.Supervisor.wall_s *. 1000.0) :: !lat_ms;
        match r.Deept.Supervisor.outcome with
        | Error f ->
            incr failed;
            check false "%s: worker %s" key (Deept.Supervisor.failure_detail f)
        | Ok j ->
            let o = j.outcome in
            if Deept.Verdict.is_fault o.Deept.Engine.verdict then incr failed;
            overhead_ms := ((r.Deept.Supervisor.wall_s -. j.engine_s) *. 1000.0) :: !overhead_ms;
            rss := Float.max !rss j.rss_mb;
            attempts := float_of_int (List.length o.Deept.Engine.attempts) :: !attempts;
            (match j.ops with
            | Some jo ->
                let s =
                  Trace.span ~parent:run_span ("job:" ^ key) ~start:j.started
                    ~stop:(j.started +. j.engine_s)
                in
                Trace.adopt_op_spans ~parent:s jo;
                Trace.merge ops jo
            | None -> gcs := j.gc :: !gcs);
            (match first.(k) with
            | None ->
                Printf.printf "precise_batch: %-36s %s@%s  %.0f ms\n%!" key
                  (Deept.Verdict.to_string o.Deept.Engine.verdict) o.Deept.Engine.rung_name
                  (r.Deept.Supervisor.wall_s *. 1000.0);
                first.(k) <- Some o
            | Some o0 ->
                check
                  (Deept.Verdict.equal o0.Deept.Engine.verdict o.Deept.Engine.verdict
                  && o0.Deept.Engine.rung_name = o.Deept.Engine.rung_name)
                  "%s: verdict changed between rounds" key))
      results
  done;
  ignore (Trace.span ~id:run_span ~parent:0 "run:precise_batch" ~start:run_start ~stop:(Host.now ()));
  (* Checks made apart from the verifier, once per job of the list. *)
  let outcomes = Array.map (function Some o -> o | None -> failwith "job never ran") first in
  let certified = ref [] and up_walks = ref 0 in
  Array.iteri
    (fun k (o : Deept.Engine.outcome) ->
      let i = inputs.(k) in
      let q = i.query in
      let key = Gen.key q in
      (match Oracle.ladder_fault ~requested:"precise" o with
      | Some why -> check false "%s: %s" key why
      | None -> ());
      if has_up o then incr up_walks;
      let cex () =
        Oracle.counterexample ~seed ~steps:30 ~restarts:4 (program_of models i) ~p:q.Gen.p i.x
          ~word:q.Gen.word ~radius:q.Gen.radius ~true_class:i.label
      in
      match o.Deept.Engine.verdict with
      | Deept.Verdict.Certified ->
          certified := q.Gen.radius :: !certified;
          check (cex () = None) "%s: certified, yet a misclassified point was found" key
      | Deept.Verdict.Falsified ->
          check (cex () <> None) "%s: falsified, but no misclassified point was found" key
      | Deept.Verdict.Unknown _ -> ())
    outcomes;
  (* Branches of each refined job: the same refinement, run once more
     on the serial wave runner, which builds the same branch tree. *)
  let branches =
    if not trace then []
    else
      Array.to_list outcomes
      |> List.mapi (fun k o -> (k, o))
      |> List.filter (fun (_, o) -> has_up o)
      |> List.map (fun (k, _) ->
             let i = inputs.(k) in
             let rep =
               Deept.Brefine.certify_v ~wave:Deept.Psearch.serial_wave cfg (program_of models i)
                 (region i) ~true_class:i.label
             in
             float_of_int rep.Deept.Brefine.branches)
  in
  let qps q s = float_of_int q /. s in
  {
    attempted = n_rounds * n;
    failed = !failed;
    end_to_end =
      [
        ("setup_s", Stats.median !setups);
        ("queries_per_s", qps !untraced_q !untraced_s);
        ("latency_p50_ms", Stats.median !lat_ms);
        ("radius_geomean", Stats.geomean !certified);
        ("certified_queries", float_of_int (List.length !certified));
        ("peak_rss_mb", !rss);
      ];
    per_layer =
      (if not trace then []
       else
         [
           ("engine.attempts_per_query", Stats.mean !attempts);
           ("engine.up_walks", float_of_int !up_walks);
           ("brefine.branches_per_refined_query", Stats.mean branches);
           ("supervisor.overhead_ms_p50", Stats.median !overhead_ms);
           ("trace.qps_ratio", qps !traced_q !traced_s /. qps !untraced_q !untraced_s);
         ]
         @ interp_metrics ops ~queries:(max 1 !traced_q)
         @ gc_metrics !gcs);
  }
