"""The wrap-point table: where the traced run puts its spans.

This is the only place that names functions of the program by dotted
path.  The untraced run never imports this module, so deleting or
renaming one of these functions cannot break or slow the gate; the
traced run reports the entry as unresolved (see
``SpanRecorder.install``) and the time falls to the parent's self time.

An entry is ``(span name, dotted target, kind, count)``:

- the span name's first component is the layer — a package under
  ``src/repro/``;
- the target is patched where it is *looked up*: a class attribute for
  methods, the using module's global for ``from x import f`` names,
  and the facade attribute (``repro.build_paper_testbed``,
  ``repro.serve.compile_snapshot``) for functions the benchmark calls
  itself;
- ``kind`` is ``"call"``, or ``"factory"`` when the target returns the
  function to time;
- ``count(result)`` reads the work the layer reports for the call.
"""

WRAP_POINTS = [
    ("topology.build", "repro.build_paper_testbed", "call", None),
    ("topology.tables", "repro.topology.precompute.build_tables", "call", None),
    ("bgp.converge", "repro.bgp.engine.BGPEngine.run", "call",
     lambda converged: converged.message_count),
    ("bgp.dataplane", "repro.bgp.dataplane.DataPlane.forward", "call", None),
    ("measurement.deploy", "repro.measurement.orchestrator.Orchestrator.deploy",
     "call", None),
    ("measurement.catchments",
     "repro.measurement.orchestrator.Deployment.measure_catchments", "call",
     lambda catchments: len(catchments.mapping)),
    ("measurement.rtt", "repro.measurement.orchestrator.Deployment.measure_rtt",
     "call", lambda rtt: 1),
    ("measurement.rtt_matrix",
     "repro.measurement.orchestrator.Orchestrator.measure_rtt_matrix", "call", None),
    ("runtime.executor", "repro.runtime.executor.CampaignExecutor.run_experiments",
     "call", None),
    ("core.discover_two_level", "repro.core.anyopt.discover_two_level", "call", None),
    ("core.total_order", "repro.core.twolevel.TwoLevelModel.total_order", "call", None),
    ("core.choose_order", "repro.core.optimizer.choose_announcement_order",
     "call", None),
    ("core.build_instance", "repro.core.optimizer.build_splpo_instance", "call", None),
    ("splpo.solve", "repro.core.optimizer.get_solver", "factory",
     lambda solved: solved.evaluations),
    ("serve.snapshot.compile", "repro.serve.compile_snapshot", "call", None),
    ("serve.snapshot.write", "repro.serve.write_snapshot", "call", None),
    ("serve.snapshot.load", "repro.serve.load_snapshot", "call", None),
    ("serve.lookup", "repro.serve.lookup.LookupEngine.predict", "call", None),
    ("serve.lookup.kernel", "repro.serve.lookup.LookupEngine.predict_arrays",
     "call", None),
]
