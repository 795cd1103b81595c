"""Site workload personalities and the traffic orchestrator.

FABRIC sites have "diverse traffic characteristics, suggesting diverse
yet persistent workloads in those sites" (finding B1).  We model that
with per-site :class:`WorkloadProfile` personalities:

* ``bulk``        -- throughput experiments: standard-MTU iperf-style
                     TCP, few protocols, high per-flow rates.
* ``jumbo-bulk``  -- the same but with jumbo frames (the sites that give
                     FABRIC its unusual jumbo prevalence, finding B5).
* ``mixed``       -- application experiments: TLS/HTTP/SSH/DNS/NTP/ICMP
                     variety, deeper encapsulation, many small flows.
* ``chatty``      -- measurement/scan-style experiments: storms of tiny
                     flows (the source of Fig 13's >20 000-flow samples).
* ``quiet``       -- mostly idle sites.

Flow arrivals are Poisson with a per-window log-normal intensity
multiplier, which reproduces the paper's finding that background
activity is highly variable (B3): most windows are calm, some spike.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.testbed.federation import Federation
from repro.traffic.distributions import flow_size_sampler, poisson_arrival_times
from repro.traffic.encapsulation import EncapKind
from repro.traffic.endpoints import EndpointRegistry, TrafficEndpoint
from repro.traffic.flows import AppSpec, Flow, STANDARD_APPS
from repro.util.rng import SeedSequenceFactory


def _stable_hash(text: str) -> int:
    """Process-independent string hash (``hash()`` is salted)."""
    return zlib.crc32(text.encode("utf-8"))


@dataclass(frozen=True)
class WorkloadProfile:
    """One site personality."""

    name: str
    app_weights: Dict[str, float]
    flow_rate_per_s: float = 5.0
    rate_sigma: float = 0.8           # log-normal volatility of intensity
    remote_fraction: float = 0.3      # flows whose peer is at another site
    ipv6_fraction: float = 0.0
    encap_weights: Dict[EncapKind, float] = field(
        default_factory=lambda: {EncapKind.VLAN_MPLS: 0.8, EncapKind.VLAN_MPLS_PW: 0.2}
    )
    endpoints: int = 4
    slices: int = 3
    # Flow-size distribution (bytes): log-normal body + Pareto tail.
    flow_body_median: float = 3e4
    flow_body_sigma: float = 1.3
    flow_tail_probability: float = 0.03
    flow_tail_minimum: float = 2e6
    flow_tail_alpha: float = 1.1
    flow_size_cap: float = 1e8

    def pick_app(self, rng: np.random.Generator) -> AppSpec:
        names, cdf = self._app_cdf
        return STANDARD_APPS[names[bisect_right(cdf, rng.random())]]

    def pick_encap(self, rng: np.random.Generator) -> EncapKind:
        kinds, cdf = self._encap_cdf
        return kinds[bisect_right(cdf, rng.random())]

    @cached_property
    def _app_cdf(self) -> Tuple[List[str], List[float]]:
        return list(self.app_weights), _choice_cdf(self.app_weights.values())

    @cached_property
    def _encap_cdf(self) -> Tuple[List[EncapKind], List[float]]:
        return list(self.encap_weights), _choice_cdf(self.encap_weights.values())


def _choice_cdf(weights: Iterable[float]) -> List[float]:
    """The CDF ``Generator.choice(p=...)`` draws from, for ``weights``.

    ``choice`` normalizes ``p`` into a CDF with exactly this numpy
    arithmetic, draws one ``rng.random()`` and returns the
    ``searchsorted(..., side="right")`` index, so ``bisect_right`` on
    this list picks what ``choice`` would, draw for draw, without
    rebuilding arrays per pick.
    """
    p = np.array(list(weights), dtype=float)
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


WORKLOAD_PROFILES: Dict[str, WorkloadProfile] = {
    "bulk": WorkloadProfile(
        name="bulk",
        app_weights={"iperf-tcp": 0.9, "dns": 0.05, "icmp": 0.05},
        flow_rate_per_s=2.0,
        rate_sigma=1.0,
        remote_fraction=0.45,
        ipv6_fraction=0.012,
        flow_body_median=1.5e6,
        flow_body_sigma=1.4,
        flow_tail_probability=0.12,
        flow_tail_minimum=2e7,
        flow_size_cap=3e8,
    ),
    "jumbo-bulk": WorkloadProfile(
        name="jumbo-bulk",
        app_weights={"iperf-jumbo": 0.82, "iperf-tcp": 0.12, "dns": 0.06},
        flow_rate_per_s=1.5,
        rate_sigma=1.0,
        remote_fraction=0.5,
        ipv6_fraction=0.012,
        flow_body_median=4e6,
        flow_body_sigma=1.4,
        flow_tail_probability=0.15,
        flow_tail_minimum=4e7,
        flow_size_cap=5e8,
    ),
    "mixed": WorkloadProfile(
        name="mixed",
        app_weights={
            "tls-web": 0.22, "http": 0.14, "ssh": 0.10, "dns": 0.22,
            "ntp": 0.10, "icmp": 0.08, "iperf-tcp": 0.14,
        },
        flow_rate_per_s=12.0,
        rate_sigma=1.2,
        remote_fraction=0.35,
        ipv6_fraction=0.04,
        encap_weights={
            EncapKind.VLAN: 0.2, EncapKind.VLAN_MPLS: 0.45,
            EncapKind.VLAN_MPLS_PW: 0.35,
        },
        endpoints=6,
        slices=6,
        flow_body_median=6e4,
        flow_body_sigma=1.6,
        flow_tail_probability=0.04,
        flow_tail_minimum=5e6,
    ),
    "chatty": WorkloadProfile(
        name="chatty",
        app_weights={"dns": 0.55, "ntp": 0.18, "icmp": 0.12, "tls-web": 0.15},
        flow_rate_per_s=180.0,
        rate_sigma=1.6,
        remote_fraction=0.2,
        ipv6_fraction=0.03,
        endpoints=8,
        slices=8,
        flow_body_median=400.0,
        flow_body_sigma=0.9,
        flow_tail_probability=0.005,
    ),
    "quiet": WorkloadProfile(
        name="quiet",
        app_weights={"ssh": 0.5, "dns": 0.3, "icmp": 0.2},
        flow_rate_per_s=0.15,
        rate_sigma=0.6,
        remote_fraction=0.2,
        endpoints=2,
        slices=1,
        flow_body_median=2e3,
        flow_body_sigma=1.0,
        flow_tail_probability=0.01,
    ),
}

# Mix used when assigning personalities to a federation, chosen so the
# aggregate frame-size and protocol profile lands near the paper's.
_PROFILE_MIX = (
    ("bulk", 0.46),
    ("jumbo-bulk", 0.08),
    ("mixed", 0.26),
    ("chatty", 0.08),
    ("quiet", 0.12),
)


def assign_site_profiles(
    site_names: Sequence[str], seed: int = 7
) -> Dict[str, WorkloadProfile]:
    """Deterministically assign a personality to every site."""
    rng = SeedSequenceFactory(seed).rng("traffic/site-profiles")
    names = [name for name, _w in _PROFILE_MIX]
    weights = np.array([w for _n, w in _PROFILE_MIX])
    weights = weights / weights.sum()
    return {
        site: WORKLOAD_PROFILES[str(rng.choice(names, p=weights))]
        for site in site_names
    }


class SiteTrafficGenerator:
    """Generates one site's traffic according to its personality."""

    def __init__(
        self,
        federation: Federation,
        registry: EndpointRegistry,
        site: str,
        profile: WorkloadProfile,
        rng: np.random.Generator,
        scale: float = 1.0,
    ):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.federation = federation
        self.registry = registry
        self.site = site
        self.profile = profile
        self.rng = rng
        self.scale = scale
        self.endpoints: List[TrafficEndpoint] = []
        self.remote_peers: List[TrafficEndpoint] = []
        # (VLAN ID, MPLS label) of each of the site's slices.
        self._slice_tags = [
            (100 + _stable_hash(f"{site}/{i}") % 3000,
             16000 + _stable_hash(f"{site}/{i}/mpls") % 4000)
            for i in range(profile.slices)
        ]
        self._size_sampler = flow_size_sampler(
            body_median=profile.flow_body_median,
            body_sigma=profile.flow_body_sigma,
            tail_probability=profile.flow_tail_probability,
            tail_minimum=profile.flow_tail_minimum,
            tail_alpha=profile.flow_tail_alpha,
            cap=profile.flow_size_cap,
        )

    def setup(self) -> None:
        """Create this site's endpoints (one synthetic slice each)."""
        for i in range(self.profile.endpoints):
            slice_name = f"{self.site}-exp{i % self.profile.slices}"
            self.endpoints.append(self.registry.create(self.site, slice_name))

    def set_remote_peers(self, peers: Sequence[TrafficEndpoint]) -> None:
        """Provide the remote endpoints cross-site flows may target."""
        self.remote_peers = [p for p in peers if p.site != self.site]

    def generate_window(self, start: float, duration: float) -> List[Flow]:
        """Schedule this site's flows for one time window.

        Returns the flows created (already armed on the simulator).
        """
        intensity = float(self.rng.lognormal(0.0, self.profile.rate_sigma))
        arrivals = poisson_arrival_times(
            self.rng, self.profile.flow_rate_per_s * intensity, duration, start
        )
        created = []
        for at in arrivals:
            flow = self._make_flow(float(at), stop_time=start + duration)
            if flow is not None:
                flow.start()
                created.append(flow)
        return created

    # -- internals ------------------------------------------------------

    def _make_flow(self, at: float, stop_time: float) -> Optional[Flow]:
        if len(self.endpoints) < 2:
            return None
        app = self.profile.pick_app(self.rng)
        encap = self.profile.pick_encap(self.rng)
        src = self.endpoints[int(self.rng.integers(0, len(self.endpoints)))]
        go_remote = self.remote_peers and self.rng.random() < self.profile.remote_fraction
        if go_remote:
            dst = self.remote_peers[int(self.rng.integers(0, len(self.remote_peers)))]
        else:
            others = [e for e in self.endpoints if e is not src]
            dst = others[int(self.rng.integers(0, len(others)))]
        vlan_id, mpls_label = self._slice_tags[
            int(self.rng.integers(0, self.profile.slices))]
        return Flow(
            sim=self.federation.sim,
            flow_id=next(self.registry.flow_ids),
            src=src,
            dst=dst,
            app=app,
            total_bytes=max(1, int(min(self._size_sampler(self.rng),
                                       app.flow_bytes_cap) * self.scale)),
            rng=self.rng,
            rate_scale=self.scale,
            encap=encap,
            vlan_id=vlan_id,
            mpls_label=mpls_label,
            use_ipv6=self.rng.random() < self.profile.ipv6_fraction,
            start_time=at,
            stop_time=stop_time,
        )


class TrafficOrchestrator:
    """Builds and drives every site's generator."""

    def __init__(
        self,
        federation: Federation,
        profiles: Optional[Dict[str, WorkloadProfile]] = None,
        seed: int = 7,
        scale: float = 1.0,
    ):
        self.federation = federation
        self.registry = EndpointRegistry(federation)
        self.profiles = profiles or assign_site_profiles(federation.site_names(), seed)
        seeds = SeedSequenceFactory(seed)
        self.generators: Dict[str, SiteTrafficGenerator] = {
            site: SiteTrafficGenerator(
                federation, self.registry, site, profile,
                seeds.rng(f"traffic/{site}"), scale=scale,
            )
            for site, profile in self.profiles.items()
        }
        self._setup_done = False

    def setup(self) -> None:
        """Create all endpoints and cross-wire remote peers.

        A multi-site slice runs *one* experiment, so a site's cross-site
        flows target endpoints at sites running the same kind of
        workload -- this is what keeps per-site traffic personalities
        distinct (the paper's finding B1) even though flows cross the
        federation.
        """
        if self._setup_done:
            return
        for generator in self.generators.values():
            generator.setup()
        by_profile: Dict[str, List[TrafficEndpoint]] = {}
        for site, generator in self.generators.items():
            by_profile.setdefault(generator.profile.name, []).extend(
                generator.endpoints)
        everyone = list(self.registry.endpoints)
        for site, generator in self.generators.items():
            kin = [e for e in by_profile.get(generator.profile.name, [])
                   if e.site != site]
            generator.set_remote_peers(kin if kin else everyone)
        self._setup_done = True

    def generate_window(self, start: float, duration: float,
                        sites: Optional[Sequence[str]] = None) -> List[Flow]:
        """Schedule traffic for one window at selected (default all) sites."""
        self.setup()
        flows = []
        for site, generator in self.generators.items():
            if sites is not None and site not in sites:
                continue
            flows.extend(generator.generate_window(start, duration))
        return flows
