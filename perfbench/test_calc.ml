(* Unit tests for the benchmark's arithmetic on synthetic inputs. *)

let close = Alcotest.float 1e-9

let test_percentile_counts () =
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let p50 = Calc.percentile xs 0.5 and p99 = Calc.percentile xs 0.99 in
  Alcotest.check close "p50 value" 500.0 p50.value;
  Alcotest.(check int) "p50 samples" 1000 p50.samples;
  Alcotest.(check int) "p50 beyond" 500 p50.beyond;
  Alcotest.check close "p99 value" 990.0 p99.value;
  Alcotest.(check int) "p99 beyond" 10 p99.beyond;
  let one = Calc.percentile [| 7.0 |] 0.99 in
  Alcotest.check close "single sample" 7.0 one.value;
  Alcotest.(check int) "nothing beyond a single sample" 0 one.beyond;
  Alcotest.check close "max is p100" 1000.0 (Calc.percentile xs 1.0).value;
  Alcotest.check_raises "empty" (Invalid_argument "Calc.percentile: no samples")
    (fun () -> ignore (Calc.percentile [||] 0.5))

let test_paper_gap () =
  (* 29.8 / 111.9 / 14.0 against 31 / 110 / 13 *)
  let gap = Calc.paper_gap_pct [ (29.8, 31.0); (111.9, 110.0); (14.0, 13.0) ] in
  let expect =
    100.0 *. ((1.2 /. 31.0) +. (1.9 /. 110.0) +. (1.0 /. 13.0)) /. 3.0
  in
  Alcotest.check close "mean relative gap" expect gap;
  Alcotest.check close "exact match" 0.0 (Calc.paper_gap_pct [ (13.0, 13.0) ])

let rung offered_tps p99_ms arrivals backlog =
  { Calc.offered_tps; p99_ms; arrivals; backlog }

let test_sustainable () =
  let ladder =
    [
      rung 100.0 200.0 1000 10;
      rung 200.0 400.0 2000 30;
      rung 300.0 900.0 3000 300 (* backlog exactly 10%: still sustainable *);
      rung 400.0 1200.0 4000 100 (* p99 over the limit *);
      rung 500.0 800.0 5000 900 (* backlog over 10% *);
    ]
  in
  Alcotest.(check (option close)) "highest rung meeting both limits"
    (Some 300.0) (Calc.sustainable_tps ~limit_ms:1000.0 ladder);
  Alcotest.(check (option close)) "order of the ladder does not matter"
    (Some 300.0) (Calc.sustainable_tps ~limit_ms:1000.0 (List.rev ladder));
  Alcotest.(check (option close)) "no rung meets the limit" None
    (Calc.sustainable_tps ~limit_ms:100.0 ladder);
  Alcotest.(check (option close)) "a rung without arrivals never counts" None
    (Calc.sustainable_tps ~limit_ms:1000.0 [ rung 50.0 0.0 0 0 ])

let test_abort_pct () =
  let o =
    {
      Calc.attempted = 200;
      committed = 140;
      aborted = 20;
      timed_out = 20;
      shed = 10;
      unfinished = 10;
    }
  in
  Alcotest.check close "every failure counts against attempted" 30.0
    (Calc.abort_pct o);
  Alcotest.check close "committed share is the complement" 70.0
    (Calc.committed_pct o);
  Alcotest.check_raises "outcomes must account for every attempt"
    (Invalid_argument "Calc.abort_pct: outcomes do not sum to attempted")
    (fun () -> ignore (Calc.abort_pct { o with unfinished = 0 }))

let test_self_time () =
  Alcotest.check close "no children" 10.0 (Calc.self_time (0.0, 10.0) []);
  Alcotest.check close "disjoint children" 4.0
    (Calc.self_time (0.0, 10.0) [ (1.0, 3.0); (5.0, 9.0) ]);
  Alcotest.check close "overlapping and out-of-range children" 3.0
    (Calc.self_time (0.0, 10.0) [ (2.0, 6.0); (4.0, 8.0); (9.0, 12.0) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "calc",
        [
          Alcotest.test_case "percentile with sample counts" `Quick
            test_percentile_counts;
          Alcotest.test_case "paper_gap_pct" `Quick test_paper_gap;
          Alcotest.test_case "sustainable_tps on a synthetic ladder" `Quick
            test_sustainable;
          Alcotest.test_case "abort_pct counts shed and unfinished" `Quick
            test_abort_pct;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
    ]
