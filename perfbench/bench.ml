(* The repository benchmark: one workload per process.

     bench --workload NAME --seed N --seconds S --trace 0|1

   Repeats the workload (fresh cluster, same seed) until S host seconds
   have passed, at least [min_reps] times. With --trace 0 it reports the
   end-to-end metrics; with --trace 1 it alternates untraced and traced
   repetitions and reports the per-layer metrics, the tracing overhead,
   and writes the spans of the first traced repetition as Chrome
   trace-event JSON under perfbench/_out/. Every metric is printed with
   its unit and time base (virtual: a model output, fixed by the seed;
   host: what running the simulator costs). Host times are scaled by a
   calibration kernel timed around each repetition ({!Calib}). The last
   line of standard output is the JSON result. Any failed correctness
   check makes the result incorrect and the exit code 1. METRICS.md
   says which layer metric should move which end-to-end metric. *)

type base = Virtual | Host

let base_name = function Virtual -> "virtual" | Host -> "host"

let end_to_end =
  [
    ("commit_p50_ms", "ms", Virtual);
    ("commit_p99_ms", "ms", Virtual);
    ("committed_tps", "1/s", Virtual);
    ("committed_pct", "%", Virtual);
    ("sim_txn_per_host_s", "1/s", Host);
    ("alloc_words_per_txn", "words", Host);
    ("peak_heap_mb", "MB", Host);
    ("setup_s", "s", Host);
  ]

let per_layer =
  [
    ("sim.events_per_txn", "count", Virtual);
    ("sim.host_ns_per_event", "ns", Host);
    ("sim.minor_words_per_event", "words", Host);
    ("mach.cpu_util_pct", "%", Virtual);
    ("mach.cpu_ms_per_txn", "ms", Virtual);
    ("mach.dispatch_wait_p99_ms", "ms", Virtual);
    ("mach.dispatch_max_depth", "count", Virtual);
    ("net.datagrams_per_txn", "count", Virtual);
    ("wal.forces_per_commit", "count", Virtual);
    ("wal.disk_writes_per_commit", "count", Virtual);
    ("wal.batch_mean", "count", Virtual);
    ("wal.force_wait_ms", "ms", Virtual);
    ("wal.records_per_txn", "count", Virtual);
    ("lock.grants_per_txn", "count", Virtual);
    ("lock.contended_pct", "%", Virtual);
    ("lock.timeouts_per_ktxn", "count", Virtual);
    ("server.op_local_p50_ms", "ms", Virtual);
    ("server.op_local_p99_ms", "ms", Virtual);
    ("server.op_remote_p50_ms", "ms", Virtual);
    ("server.op_remote_p99_ms", "ms", Virtual);
    ("core.commit_p50_ms", "ms", Virtual);
    ("core.commit_p99_ms", "ms", Virtual);
    ("recovery.restart_host_ms", "ms", Host);
    ("recovery.records_scanned", "count", Virtual);
    ("cluster.create_host_ms", "ms", Host);
    ("analysis.static_share_pct", "%", Virtual);
    ("analysis.paper_gap_pct", "%", Virtual);
    ("open_loop.sustainable_tps", "1/s", Virtual);
    ("self.txn_ms", "ms", Virtual);
    ("self.dispatch_wait_ms", "ms", Virtual);
    ("self.core_begin_ms", "ms", Virtual);
    ("self.server_op_ms", "ms", Virtual);
    ("self.core_commit_ms", "ms", Virtual);
    ("trace.overhead_pct", "%", Host);
  ]

(* name, loop, one-line rationale *)
let workloads =
  [
    ( "paper-minimal",
      "closed loop, 1 application at site 0 of 2 (RT model)",
      fun ~seed ~traced ~first:_ -> Workloads.Paper.rep ~seed ~traced );
    ( "closed-groupcommit",
      "closed loop, 4 sites x 8 workers (VAX model, adaptive group commit)",
      fun ~seed ~traced ~first:_ -> Workloads.Groupcommit.rep ~seed ~traced );
    ( "open-hotspot",
      "open loop, Poisson 200 tps offered to 24 sites (VAX model)",
      fun ~seed ~traced ~first ->
        Workloads.Hotspot.rep ~seed ~traced ~ladder:(traced && first) );
  ]

let min_reps = 3
let max_reps = 200
let max_trace_txns = 2000

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := Some v; go rest
    | a :: _ -> die "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  let workload =
    match !workload with
    | Some w when List.exists (fun (n, _, _) -> n = w) workloads -> w
    | _ ->
        die "--workload must be one of: %s"
          (String.concat ", " (List.map (fun (n, _, _) -> n) workloads))
  in
  let seed = match !seed with Some s -> s | None -> die "--seed N is required" in
  let seconds =
    match !seconds with Some s when s > 0.0 -> s | _ -> die "--seconds S (S > 0) is required"
  in
  let traced =
    match !trace with
    | Some "0" -> false
    | Some "1" -> true
    | _ -> die "--trace must be 0 or 1"
  in
  (workload, seed, seconds, traced)

let median xs = Calc.median (Array.of_list xs)

(* The virtual outputs of a repetition: they must repeat exactly. *)
let virtual_digest (r : Workloads.rep) =
  let o = r.outcomes in
  ( [ o.attempted; o.committed; o.aborted; o.timed_out; o.shed; o.unfinished; r.events ],
    r.latencies,
    r.layers,
    r.ladder )

let timed_s (r : Workloads.rep) = r.run_s +. r.restart_s

(* Host times scaled by [k], the calibration kernel's speed relative to
   its reference time around this repetition. *)
let at_reference_speed k (r : Workloads.rep) =
  {
    r with
    create_s = k *. r.create_s;
    setup_s = k *. r.setup_s;
    run_s = k *. r.run_s;
    restart_s = k *. r.restart_s;
  }

let report_line (name, unit, base) v extra =
  Printf.printf "  %-28s %16.6f %-6s %-7s %s\n" name v unit (base_name base) extra

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else die "metric value %f is not a finite number" v

let () =
  let workload, seed, seconds, traced = parse_args () in
  let _, loop, run_rep =
    List.find (fun (n, _, _) -> n = workload) workloads
  in
  let t_start = Unix.gettimeofday () in
  (* (traced?, repetition) in run order; only [base], the first
     untraced repetition, and the first traced one keep their samples
     and spans, so what earlier repetitions hold stays small *)
  let reps = ref [] and kernel = ref [] in
  let base = ref None and first_traced = ref None in
  let repeats = ref true and trace_repeats = ref true in
  let n = ref 0 in
  let calib = ref (Calib.time ()) in
  while
    !n < (if traced then 2 * min_reps else min_reps)
    || (Unix.gettimeofday () -. t_start < seconds && !n < max_reps)
  do
    let this_traced = traced && !n mod 2 = 1 in
    let r = run_rep ~seed ~traced:this_traced ~first:(!n = 1) in
    let after = Calib.time () in
    let kernel_s = (!calib +. after) /. 2.0 in
    calib := after;
    kernel := kernel_s :: !kernel;
    let r = at_reference_speed (Calib.reference_s /. kernel_s) r in
    (match (!base, this_traced) with
    | None, _ -> base := Some r
    | Some b, false -> if virtual_digest r <> virtual_digest b then repeats := false
    | Some b, true ->
        let c, l, layers, _ = virtual_digest r and c0, l0, layers0, _ = virtual_digest b in
        if not (c = c0 && l = l0 && layers = layers0) then trace_repeats := false;
        if !first_traced = None then first_traced := Some r);
    reps := (this_traced, { r with latencies = [||]; spans = Span.create ~on:false }) :: !reps;
    incr n
  done;
  let reps = List.rev !reps in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) reps in
  let traced_reps = List.filter_map (fun (t, r) -> if t then Some r else None) reps in
  let first = Option.get !base in
  let checks =
    List.concat_map (fun (_, (r : Workloads.rep)) -> r.checks) reps
    @ [
        ("virtual results repeat exactly across repetitions", !repeats);
        ("traced repetitions reproduce the untraced virtual results", !trace_repeats);
      ]
  in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  let o = first.outcomes in
  let p50 = Calc.percentile first.latencies 0.5 in
  let p99 = Calc.percentile first.latencies 0.99 in
  let med f = median (List.map f untraced) in
  Printf.printf "workload %s (%s), seed %d, %d repetitions (%d traced) in %.1f host s\n"
    workload loop seed (List.length reps) (List.length traced_reps)
    (Unix.gettimeofday () -. t_start);
  Printf.printf
    "  host times are scaled to the calibration kernel's %.0f ms; it took %.1f ms here (median)\n"
    (1000.0 *. Calib.reference_s) (1000.0 *. median !kernel);
  Printf.printf
    "  transactions measured: %d attempted, %d committed, %d aborted, %d timed out, %d shed, %d unfinished\n"
    o.attempted o.committed o.aborted o.timed_out o.shed o.unfinished;
  let metrics =
    if not traced then begin
      let values =
        [
          ("commit_p50_ms", p50.value, Printf.sprintf "(median of %d samples)" p50.samples);
          ( "commit_p99_ms",
            p99.value,
            Printf.sprintf "(%d samples, %d beyond)" p99.samples p99.beyond );
          ("committed_tps", float_of_int o.committed /. (first.window_ms /. 1000.0), "");
          ("committed_pct", Calc.committed_pct o, "(aborts, timeouts, shed, unfinished fail)");
          ( "sim_txn_per_host_s",
            med (fun r -> float_of_int r.finished /. timed_s r),
            "(median over repetitions)" );
          ( "alloc_words_per_txn",
            med (fun r -> r.words /. float_of_int r.finished),
            "(median over repetitions)" );
          ("peak_heap_mb", med (fun r -> r.live_mb), "(live heap the run holds at its end)");
          ("setup_s", med (fun r -> r.setup_s), "(median over repetitions)");
        ]
      in
      List.map2
        (fun ((name, unit, _) as m) (name', v, extra) ->
          assert (name = name');
          report_line m v extra;
          (name, unit, v))
        end_to_end values
    end
    else begin
      let t = Option.get !first_traced in
      let spans = Span.spans t.spans in
      let durations kind =
        Array.of_list
          (List.filter_map
             (fun (s : Span.span) -> if s.kind = kind then Some (s.stop -. s.start) else None)
             spans)
      in
      let pct kind q =
        let xs = durations kind in
        if Array.length xs = 0 then 0.0 else (Calc.percentile xs q).value
      in
      let self = Span.self_ms_per_txn spans in
      let self_of kinds = List.fold_left (fun a k -> a +. List.assoc k self) 0.0 kinds in
      let traced_med f = median (List.map f traced_reps) in
      let values =
        first.layers
        @ [
            ("sim.events_per_txn", float_of_int first.events /. float_of_int first.finished);
            ("sim.host_ns_per_event", med (fun r -> 1e9 *. r.run_s /. float_of_int r.events));
            ("sim.minor_words_per_event", med (fun r -> r.words /. float_of_int r.events));
            ("mach.dispatch_wait_p99_ms", pct Span.Dispatch_wait 0.99);
            ("server.op_local_p50_ms", pct Span.Op_local 0.5);
            ("server.op_local_p99_ms", pct Span.Op_local 0.99);
            ("server.op_remote_p50_ms", pct Span.Op_remote 0.5);
            ("server.op_remote_p99_ms", pct Span.Op_remote 0.99);
            ("core.commit_p50_ms", pct Span.Core_commit 0.5);
            ("core.commit_p99_ms", pct Span.Core_commit 0.99);
            ("recovery.restart_host_ms", 1000.0 *. med (fun r -> r.restart_s));
            ("cluster.create_host_ms", 1000.0 *. med (fun r -> r.create_s));
            ( "open_loop.sustainable_tps",
              Option.value ~default:0.0
                (Calc.sustainable_tps ~limit_ms:Workloads.Hotspot.limit_ms t.ladder) );
            ("self.txn_ms", self_of [ Span.Txn ]);
            ("self.dispatch_wait_ms", self_of [ Span.Dispatch_wait ]);
            ("self.core_begin_ms", self_of [ Span.Core_begin ]);
            ("self.server_op_ms", self_of [ Span.Op_local; Span.Op_remote ]);
            ("self.core_commit_ms", self_of [ Span.Core_commit ]);
            ( "trace.overhead_pct",
              100.0 *. ((traced_med timed_s /. med timed_s) -. 1.0) );
          ]
      in
      List.iter
        (fun (r : Calc.rung) ->
          Printf.printf "  ladder %4.0f tps offered: p99 %.1f ms, backlog %d of %d arrivals\n"
            r.offered_tps r.p99_ms r.backlog r.arrivals)
        t.ladder;
      let dir = Filename.concat "perfbench" "_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
      Span.write_chrome ~path ~max_txns:max_trace_txns spans;
      Printf.printf "  trace of the first %d transactions written to %s\n" max_trace_txns path;
      List.iter (fun (name, _) -> assert (List.exists (fun (n, _, _) -> n = name) per_layer)) values;
      List.map
        (fun ((name, unit, _) as m) ->
          (* a layer the workload does not exercise reads 0 *)
          let v = Option.value ~default:0.0 (List.assoc_opt name values) in
          report_line m v "";
          (name, unit, v))
        per_layer
    end
  in
  List.iter (fun (name, ok) -> if not ok then Printf.printf "  CHECK FAILED: %s\n" name) failed;
  Printf.printf "  %d correctness checks, %d failed\n" (List.length checks) (List.length failed);
  let attempted = List.fold_left (fun a (_, (r : Workloads.rep)) -> a + r.outcomes.attempted) 0 reps in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = []) attempted (List.length failed)
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit)
          metrics));
  exit (if failed = [] then 0 else 1)
