let run ~reps ~horizon_ms () =
  Table1.run ();
  Table2.run ~reps ();
  Rpc_breakdown.run ~reps:(reps * 4) ();
  Fig2.run ~reps ();
  Table3.run ~reps ();
  Fig3.run ~reps ();
  Fig4.run ~horizon_ms ();
  Fig5.run ~horizon_ms ();
  Multicast.run ~reps:(reps * 2) ();
  Ablations.run ~reps:(max 20 (reps / 2)) ()
