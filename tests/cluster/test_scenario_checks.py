"""A cluster scenario is checked when it is built, not when it runs.

A tenant's ``dst_pod`` names one of the fat-tree's ``k`` pods; one
beyond them used to wrap silently into another pod (``HostAllocator``
takes pods modulo ``k``).  The fabric is always a fat-tree, so a JSON
file that still names the leaf-spine keys is refused like any other
unknown key.
"""

import json

import pytest

from repro.cluster import ClusterScenario, JobSpec, TenantSpec
from repro.cluster.cli import main as cluster_main


def _scenario(**fields) -> dict:
    data = {
        "name": "bad",
        "description": "a tenant aimed past the last pod",
        "jobs": [{"name": "job0", "workers": 2, "epochs": 1}],
        "tenants": [{"name": "far", "pattern": "incast", "dst_pod": 5}],
    }
    data.update(fields)
    return data


def test_a_tenant_pod_beyond_k_is_refused_by_name():
    with pytest.raises(ValueError, match=r"tenant 'far' has dst_pod 5.*k=4"):
        ClusterScenario(
            name="bad",
            description="",
            jobs=(JobSpec(name="job0"),),
            tenants=(TenantSpec(name="far", pattern="incast", dst_pod=5),),
        )


def test_the_last_pod_is_accepted():
    scenario = ClusterScenario.from_dict(_scenario(tenants=[{"name": "edge", "dst_pod": 3}]))
    assert scenario.tenants[0].dst_pod == scenario.k - 1


def test_removed_leaf_spine_keys_are_unknown():
    for key, value in (("topology", "fat-tree"), ("leaves", 4), ("spines", 2),
                       ("hosts_per_leaf", 4)):
        data = _scenario(tenants=[], **{key: value})
        with pytest.raises(ValueError, match=rf"unknown cluster scenario keys: \['{key}'\]"):
            ClusterScenario.from_dict(data)


def test_repro_cluster_run_refuses_the_file_in_one_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_scenario()))
    with pytest.raises(SystemExit) as exc:
        cluster_main(["run", str(path), "--seed", "7"])
    assert exc.value.code == 2
    (line,) = [line for line in capsys.readouterr().err.splitlines() if ": error: " in line]
    assert line.startswith("repro-cluster run: error: argument scenario: ")
    assert "tenant 'far' has dst_pod 5" in line and "k=4" in line
