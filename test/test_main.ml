let () =
  Alcotest.run "vpc"
    [
      ("support", Test_support.tests);
      ("ty", Test_ty.tests);
      ("simplify", Test_simplify.tests);
      ("lexer", Test_lexer.tests);
      ("parser", Test_parser.tests);
      ("lower", Test_lower.tests);
      ("interp", Test_interp.tests);
      ("analysis", Test_analysis.tests);
      ("while-to-do", Test_while_to_do.tests);
      ("indvar", Test_indvar.tests);
      ("dependence", Test_dependence.tests);
      ("vectorize", Test_vectorize.tests);
      ("inline", Test_inline.tests);
      ("transforms", Test_transforms.tests);
      ("doacross", Test_doacross.tests);
      ("serialize", Test_serialize.tests);
      ("titan", Test_titan.tests);
      ("codegen", Test_codegen.tests);
      ("pipeline", Test_pipeline.tests);
      ("vreuse", Test_vreuse.tests);
      ("verify", Test_verify.tests);
      ("pointsto", Test_pointsto.tests);
      ("range", Test_range.tests);
      ("profile", Test_profile.tests);
      ("tune", Test_tune.tests);
      ("server", Test_server.tests);
      ("switches", Test_switches.tests);
    ]
