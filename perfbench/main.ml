(* One run of one workload:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   prints, as the last line of standard output, one JSON object with
   the run's correctness, its attempted and failed operations and its
   metrics: every end-to-end metric untraced, every per-layer metric
   traced. Run it from the repository root (models are read from
   data/); perfbench/run.py builds it and adds the repeat mode.

   Two more modes serve the workloads' cold starts, each in a fresh
   process: [--set-up-only] sets up a workload's inputs and exits, and
   [--serve PREFIX] runs the daemon on PREFIX.sock. *)

open Perfbench

let workloads =
  [
    ("radius_search", W_radius.run);
    ("precise_batch", W_precise.run);
    ("certifyd_open", W_certifyd.run);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  let set_up_only = ref false and serve = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  run length the work is sized for (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run printing the per-layer metrics");
      ("--set-up-only", Arg.Set set_up_only, " set up the workload's inputs and exit");
      ("--serve", Arg.Set_string serve, "PREFIX  run the daemon on PREFIX.sock");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  Zoo.data_dir := "data";
  (* Everything the run writes stays in the checkout, the daemon's
     weight arena (a temp file, unlinked once mapped) included. *)
  let scratch = Filename.concat (Sys.getcwd ()) "_perfbench" in
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ scratch; Filename.concat scratch "tmp" ];
  Filename.set_temp_dir_name (Filename.concat scratch "tmp");
  if !serve <> "" then begin
    W_certifyd.serve !serve;
    exit 0
  end;
  if !set_up_only then begin
    (match !workload with
    | "radius_search" -> ignore (Common.set_up (Gen.radius_queries ~seed:!seed))
    | "precise_batch" -> ignore (Common.set_up (Gen.precise_jobs ~seed:!seed))
    | w -> failwith ("no set-up-only mode for " ^ w));
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        Printf.eprintf "perfbench: unknown workload %S\n" !workload;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let loop_before = Host.float_loop_s () in
  let r = run ~seed:!seed ~seconds:!seconds ~trace in
  let loop_after = Host.float_loop_s () in
  if trace then begin
    let path = Printf.sprintf "_perfbench/spans-%s-seed%d.jsonl" !workload !seed in
    Trace.write path;
    Printf.printf "spans: %s (%d)\n" path (List.length !Trace.spans)
  end;
  (* host-speed context, not a metric *)
  Printf.printf "host float loop: %.4f s before, %.4f s after; nproc %d\n" loop_before loop_after
    (Domain.recommended_domain_count ());
  Common.print_result ~trace r
