let () =
  (* Fixture refresh (docs/LOADGEN.md): regenerate the golden snapshots
     instead of running the suites. *)
  match Sys.getenv_opt "GOLDEN_PROMOTE" with
  | Some dir when String.trim dir <> "" -> Golden_promote.write_all ~dir
  | _ ->
  Alcotest.run "message-morphing"
    [
      ("ptype", Test_ptype.suite);
      ("value", Test_value.suite);
      ("wire", Test_wire.suite);
      ("codec", Test_codec.suite);
      ("meta+registry", Test_meta_registry.suite);
      ("convert", Test_convert.suite);
      ("ecode syntax", Test_ecode_syntax.suite);
      ("ecode exec", Test_ecode_exec.suite);
      ("diff+maxmatch", Test_diff_maxmatch.suite);
      ("obs", Test_obs.suite);
      ("obs labeled", Test_obs_labeled.suite);
      ("obs catalog", Test_obs_catalog.suite);
      ("morphcheck", Test_morphcheck.suite);
      ("receiver", Test_receiver.suite);
      ("chains", Test_chain.suite);
      ("xml", Test_xml.suite);
      ("xslt", Test_xslt.suite);
      ("transport", Test_transport.suite);
      ("faults", Test_faults.suite);
      ("chaos", Test_chaos.suite);
      ("echo", Test_echo.suite);
      ("b2b", Test_b2b.suite);
      ("integration", Test_integration.suite);
      ("bench schema", Test_bench_schema.suite);
      ("loadgen", Test_loadgen.suite);
      ("gateway", Test_gateway.suite);
      ("parallel", Test_parallel.suite);
    ]
