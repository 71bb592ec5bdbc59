from benchmarks.suite.run import main

raise SystemExit(main())
