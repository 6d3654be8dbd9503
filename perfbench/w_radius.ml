(* radius_search: DeepT-Fast certified radii through the default
   sequential search, exactly what `certify radius` runs. *)

open Common

(* Round length of the fixed list on a 2-core host (see README). *)
let nominal_round_s = 14.0

let run ~seed ~seconds ~trace =
  let queries = Gen.radius_queries ~seed in
  require_models (Gen.models_of queries);
  let models, inputs = set_up queries in
  let set_up_samples () = set_up_samples ~n:5 ~workload:"radius_search" ~seed in
  let setups = ref (set_up_samples ()) in
  let n_rounds = rounds ~seconds ~nominal:nominal_round_s ~trace in
  let run_span = Trace.fresh_id () and run_start = Host.now () in
  let ops = Trace.ops () in
  let lat_ms = ref [] and gcs = ref [] and props = ref [] in
  let untraced_s = ref 0.0 and untraced_q = ref 0 in
  let traced_s = ref 0.0 and traced_q = ref 0 in
  let radii = Hashtbl.create 16 in
  let failed = ref 0 and peak_rss = ref 0.0 in
  for round = 1 to n_rounds do
    let traced = trace && round mod 2 = 0 in
    let round_s = ref 0.0 in
    List.iter
      (fun (i : input) ->
        let q = i.query in
        (* Each query runs in a fresh forked process, as each `certify
           radius` invocation does: the loaded models are inherited, the
           heap starts the same whatever ran before, so neither the time
           nor the peak resident set depends on the order of the list. *)
        let t0, t1, rep, gc, qops, rss =
          Host.in_child (fun () ->
              let qops = Trace.ops () in
              let cfg =
                if traced then Deept.Config.with_trace (Some (Trace.sink qops)) Deept.Config.fast
                else Deept.Config.fast
              in
              let t0 = Host.now () in
              let rep, gc =
                with_gc (fun () ->
                    Deept.Certify.certified_radius_v cfg (program_of models i) ~p:q.Gen.p i.x
                      ~word:q.Gen.word ~true_class:i.label ())
              in
              let t1 = Host.now () in
              (t0, t1, rep, gc, qops, Host.self_peak_rss_mb ()))
        in
        peak_rss := Float.max !peak_rss rss;
        lat_ms := ((t1 -. t0) *. 1000.0) :: !lat_ms;
        round_s := !round_s +. (t1 -. t0);
        if rep.Deept.Certify.faulted_probes <> [] then incr failed;
        props :=
          float_of_int (rep.Deept.Certify.bracket_probes + rep.Deept.Certify.bisect_probes)
          :: !props;
        if traced then begin
          let s = Trace.span ~parent:run_span ("query:" ^ Gen.key q) ~start:t0 ~stop:t1 in
          Trace.adopt_op_spans ~parent:s qops;
          Trace.merge ops qops
        end
        else gcs := gc :: !gcs;
        let r = rep.Deept.Certify.radius in
        match Hashtbl.find_opt radii (Gen.key q) with
        | None ->
            Printf.printf "radius_search: %-36s radius %.6g  %.0f ms\n%!" (Gen.key q) r
              ((t1 -. t0) *. 1000.0);
            Hashtbl.replace radii (Gen.key q) r
        | Some r0 ->
            check (Int64.equal (Int64.bits_of_float r0) (Int64.bits_of_float r))
              "%s: radius %.17g in one round, %.17g in another" (Gen.key q) r0 r)
      inputs;
    let dt = !round_s in
    setups := set_up_samples () @ !setups;
    if traced then (traced_s := !traced_s +. dt; traced_q := !traced_q + List.length inputs)
    else (untraced_s := !untraced_s +. dt; untraced_q := !untraced_q + List.length inputs)
  done;
  (* Each certified region, sampled and attacked apart from the verifier. *)
  List.iter
    (fun (i : input) ->
      let q = i.query in
      let r = Hashtbl.find radii (Gen.key q) in
      check (r > 0.0) "%s: no radius certified" (Gen.key q);
      match
        Oracle.counterexample ~seed ~steps:30 ~restarts:4 (program_of models i) ~p:q.Gen.p
          i.x ~word:q.Gen.word ~radius:r ~true_class:i.label
      with
      | None -> ()
      | Some _ -> check false "%s: a point of the certified radius %g is misclassified" (Gen.key q) r)
    inputs;
  ignore (Trace.span ~id:run_span ~parent:0 "run:radius_search" ~start:run_start ~stop:(Host.now ()));
  let radii_l = List.map (fun (i : input) -> Hashtbl.find radii (Gen.key i.query)) inputs in
  let qps q s = float_of_int q /. s in
  let n_traced_q = max 1 !traced_q in
  {
    attempted = n_rounds * List.length inputs;
    failed = !failed;
    end_to_end =
      [
        ("setup_s", Stats.median !setups);
        ("queries_per_s", qps !untraced_q !untraced_s);
        ("latency_p50_ms", Stats.median !lat_ms);
        ("radius_geomean", Stats.geomean (List.filter (fun r -> r > 0.0) radii_l));
        ("certified_queries", float_of_int (List.length (List.filter (fun r -> r > 0.0) radii_l)));
        ("peak_rss_mb", !peak_rss);
      ];
    per_layer =
      (if not trace then []
       else
         [
           ("psearch.propagations_per_query", Stats.mean !props);
           ("psearch.probe_ms_p50", 1000.0 *. Stats.median ops.Trace.probe_s);
           ("trace.qps_ratio", qps !traced_q !traced_s /. qps !untraced_q !untraced_s);
         ]
         @ interp_metrics ops ~queries:n_traced_q
         @ gc_metrics !gcs);
  }
