let () =
  Alcotest.run "nebby"
    [
      ("netsim", Test_netsim.suite);
      ("sigproc", Test_sigproc.suite);
      ("cca", Test_cca.suite);
      ("transport", Test_transport.suite);
      ("nebby", Test_nebby.suite);
      ("classifiers", Test_classifiers.suite);
      ("internet", Test_internet.suite);
      ("baselines", Test_baselines.suite);
      ("more", Test_more.suite);
      ("obs", Test_obs.suite);
      ("histogram", Test_histogram.suite);
      ("faults", Test_faults.suite);
      ("engine", Test_engine.suite);
      ("golden", Test_golden.suite);
      ("provenance", Test_provenance.suite);
      ("flight", Test_flight.suite);
      ("campaign", Test_campaign.suite);
      ("serve", Test_serve.suite);
      ("drift", Test_drift.suite);
      ("adversarial", Test_adversarial.suite);
      ("envelope", Test_envelope.suite);
      ("ctl_cache", Test_control_cache.suite);
      ("gate", Test_gate.suite);
    ]
