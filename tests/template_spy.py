"""A spy on everything that builds a template diagram or traces an
orientation."""

from knotpair import census, classify, cli, diagram, oracle


def spy_on_templates(monkeypatch):
    """Record, as (name, argument), every call of:

    - ``pd_from_rep`` and ``orient``, in each module that imports them;
    - ``_write_template`` ("build", its labels), which every template
      diagram but K(0)'s two free loops goes through, whatever function
      asked for it;
    - ``_orient_ports`` ("trace", the arc ends), the tracing of an
      orientation, which the writer runs once and ``orient`` runs on a code
      that carries no orientation from a build.
    """
    calls = []
    for name in ("pd_from_rep", "orient"):
        real = getattr(diagram, name)

        def spy(arg, name=name, real=real):
            calls.append((name, arg))
            return real(arg)

        for module in (census, classify, cli, diagram, oracle):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy)

    write, trace = diagram._write_template, diagram._orient_ports
    monkeypatch.setattr(
        diagram, "_write_template",
        lambda labels: calls.append(("build", labels)) or write(labels),
    )
    monkeypatch.setattr(
        diagram, "_orient_ports", lambda other: calls.append(("trace", other)) or trace(other)
    )
    return calls
