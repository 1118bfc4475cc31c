"""Registry-wide pins on canonical run-record bytes.

Every registry scenario runs in both executors at seed 0 with live
telemetry, at a quarter of its registry ``target_requests`` and its registry
horizon.  The SHA-256 of each :meth:`RunRecord.canonical_bytes` is pinned, so
a refactor that claims "same results" has to keep every result field,
counter, gauge, histogram and slot series of every scenario bit-identical.

The digests hold for one numpy/platform build; a digest that moves after a
change that should not touch simulated numbers is a behaviour change, not a
stale pin.
"""

import hashlib

import pytest

from repro.scenarios import builtin_specs, get_scenario, run_scenario
from repro.telemetry import Telemetry, build_run_record

SEED = 0

#: ``(scenario, execution) -> sha256(canonical_bytes)``.
PINNED = {
    ("paper-baseline", "event"): "86c97e6f68ebc82df5a1399495ae12afe52824b83c9bd76ddcc98ddf335b8133",
    ("paper-baseline", "batched"): "0e65ac232334a74ab49e14bc529df40294a04d3311e7d43d1323354411ff8556",
    ("flash-crowd", "event"): "2f643db49a9fe0ec566310f487bd3a0e2f39c67e66348013369a40b65125b8a5",
    ("flash-crowd", "batched"): "c3633d055d6e2de8f01a8bb214dfb532c8486a53b9a58a546c8aca12c3e6af15",
    ("diurnal", "event"): "b7cf6dbc84909a27fb436bbb66032724507c26251e74104c8486c665882bb4bf",
    ("diurnal", "batched"): "ac36cc885540c757a118be89b8642a39080e2c3861b4557423c0144312e9bc5e",
    ("bursty-poisson", "event"): "76426b9638c2a89c3ea609f400d4e32380732ac85e88a8318956b77c572c1574",
    ("bursty-poisson", "batched"): "f0fc75a84dcb42730cee365c8ce0437b2349576902a5fecc2d520ec4772578d9",
    ("heterogeneous-fleet", "event"): "a263bffdc6307c8ccef2ffebfd23fa71a87dc1d9a98ced283641c620a05505d6",
    ("heterogeneous-fleet", "batched"): "9cd718a4189f552c5bf5e841ce99d3ee638e52297be4922b2a8404c12ebddf35",
    ("price-spike", "event"): "d0ccc1a90cd5fc25e5c9c0e242137ff2d7f2e42a5c58bbe4221348e6d7cf7169",
    ("price-spike", "batched"): "e27d7d78dc81efe899c2b63a28af02028023eb1c7c65db70c7debd9cc703043a",
    ("degraded-3g", "event"): "2c580a12b9309bedb3f8007f89470a810a42656e0c8bff91c5d0fa89eea95b6b",
    ("degraded-3g", "batched"): "54fbc0570cb2c3a5b2644d033839d862e3b3c5c38704287d55f14969421fe57a",
    ("cold-history", "event"): "f297bb3223f1d8fa392b02cd4b4798b0300e1072a5b76b52bf8d6ba096fbd9d2",
    ("cold-history", "batched"): "0719159f869e136207d58b3c14e344029a9e86f926fb45938c32f20d96c7603d",
    ("region-outage-failover", "event"): "1d7776fc13f4164d1fd3277c2eae2163a23a39502cbf41797fb0c2cd6c963f03",
    ("region-outage-failover", "batched"): "4893b320d4ae83d5c8d9b5f58d955ba42a91aac90913d67a0fec25cb2d84dd14",
    ("cross-region-flash-crowd", "event"): "b62423f3043d01e859f8a420d513c7d1cf0ed5a9ddc9d4af5b280d2c3c779042",
    ("cross-region-flash-crowd", "batched"): "b25d4eb2ae2427794e502ab83f1d6fcdf8ca97a1c5f0efc5a592ed31c0ee2d8a",
    ("price-arbitrage", "event"): "5507d0b0cd5ad32fde1caa0935f7e4fcfac7900c66c2d27484d86db4f3d25677",
    ("price-arbitrage", "batched"): "abdde7e6c879b14d5803585ab3deb76c9253ea7c1bbcae3798d24e55da0f1c42",
    ("edge-vs-core", "event"): "75c97552a28cc20ad3c2d07c3dfd4cd91073c4e3274ad7076a9005c607e1fdd6",
    ("edge-vs-core", "batched"): "d5de66574e930b908c4e67af99a3c01651b9a2f5d85c4369d583b4f6c10b41f2",
    ("hotspot-spillover", "event"): "165aa3e0fe8ef5aaf07763f7d6f70d5b6c2782867c02e38a3da3dad642eac883",
    ("hotspot-spillover", "batched"): "fef697136247bbee47c132310122a48ca46770a6fafd0560e60991ef7b374949",
    ("load-chase", "event"): "40237b8765a4e96034a56891ffdc6a09903f64b64c70058dddfcdaa7ca76b5b5",
    ("load-chase", "batched"): "011a7b15bc0ee8b97528dd5dc5d3ecd9238ac64083785c86042043dffbe58a3b",
    ("mixed-fleet-miscount", "event"): "7419dbcae03c1d4743b4f0470623efdc3a664b63fd98070aaaa4795a2f6cb291",
    ("mixed-fleet-miscount", "batched"): "d37043b4c420fbcbcbd14492be80a4584061f186f39ff6946e91a26d6b69b883",
    ("spot-preemption-storm", "event"): "59b65919b887890ae587635775c912ab2bb0528d1e7686dbb9a78ead5cc7fae1",
    ("spot-preemption-storm", "batched"): "d93ca785f63ee16fb26172ecb16767a15235d2b74bbb283033dd3d0631dd2ffa",
    ("flaky-uplink", "event"): "854c21f9db9b1b8b6bb271a88518be3295b12ded94198f05e6c49069a8e5322e",
    ("flaky-uplink", "batched"): "0784a9829d34699fe5806fe8dfbdeb8699eb3e0504e3274f3540e50aa7e0c324",
    ("stale-broker", "event"): "a51552a0e47501e89d6f4e7439e643f1f983d23277e1f16449347605513938e3",
    ("stale-broker", "batched"): "8074c01274fd32927cf35a7d0a97b4967a7b21704703c8a47a0328ecdf426192",
}


def quarter(name, execution):
    spec = get_scenario(name)
    return spec.with_overrides(
        execution=execution,
        target_requests=max(1, spec.workload.target_requests // 4),
    )


def test_pins_cover_the_whole_registry():
    names = {spec.name for spec in builtin_specs()}
    assert set(PINNED) == {(n, e) for n in names for e in ("event", "batched")}


@pytest.mark.parametrize("name,execution", sorted(PINNED))
def test_canonical_record_bytes_are_pinned(name, execution):
    spec = quarter(name, execution)
    telemetry = Telemetry()
    result = run_scenario(spec, seed=SEED, telemetry=telemetry)
    record = build_run_record(spec, result, telemetry, environment=False)
    digest = hashlib.sha256(record.canonical_bytes()).hexdigest()
    assert digest == PINNED[(name, execution)]
