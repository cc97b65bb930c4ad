"""Public-API stability: the names downstream users import must exist.

A curated manifest of the public surface; accidental removals or renames
fail here with a clear message before any downstream breakage.
"""

import importlib

import pytest

PUBLIC_API = {
    "repro.core": [
        "Execution", "Message", "MessageFactory", "MessageId", "Renaming",
        "Step", "BroadcastSpec", "SpecVerdict", "check_base_properties",
        "check_channels", "ChannelTracker", "check_ksa",
        "check_compositional",
        "check_content_neutral", "NSoloWitness", "find_witness",
        "is_n_solo", "verify_witness", "fresh_renaming",
        "WellFormednessError",
    ],
    "repro.core.serialize": ["dumps", "loads", "to_jsonable",
                             "from_jsonable"],
    "repro.specs": [
        "SendToAllSpec", "ReliableBroadcastSpec",
        "UniformReliableBroadcastSpec", "FifoBroadcastSpec",
        "CausalBroadcastSpec", "TotalOrderBroadcastSpec",
        "KboBroadcastSpec", "KSteppedBroadcastSpec",
        "FirstKBroadcastSpec", "SaTaggedBroadcastSpec",
        "MutualBroadcastSpec", "PairBroadcastSpec", "ScdBroadcastSpec",
        "KScdBroadcastSpec", "GenericBroadcastSpec", "sa_content",
        "command_content", "commands_conflict", "set_delivery_ranks",
    ],
    "repro.runtime": [
        "Simulator", "SimulationResult", "Gated", "CrashSchedule",
        "BroadcastProcess", "ProcessRuntime", "Network", "TraceRecorder",
        "KsaRegistry", "KsaObject", "FirstProposalsPolicy",
        "OwnValuePolicy", "ScriptedPolicy", "SchedulingPolicy",
        "UniformPolicy", "LockstepPolicy", "ChannelFifoPolicy",
        "TargetedDelayPolicy", "Send", "Propose", "Deliver",
        "DeliverSet", "Wait", "LocalNote", "explore_schedules",
        "spec_property", "channels_property", "combine_properties",
        "ExplorationResult", "Violation", "SimulationRun",
        "PropertyTracker",
    ],
    "repro.broadcasts": [
        "SendToAllBroadcast", "UniformReliableBroadcast", "FifoBroadcast",
        "CausalBroadcast", "TotalOrderBroadcast", "TrivialKsaBroadcast",
        "FirstKKsaBroadcast", "KboAttemptBroadcast", "ScdBroadcast",
        "KSteppedKsaBroadcast", "RoundAgreementBroadcast",
    ],
    "repro.agreement": [
        "solve_agreement_with_broadcast", "solve_nsa_trivially",
        "solve_iterated_agreement", "round_decisions",
        "BroadcastClient", "FirstDeliveredClient", "MultiRoundClient",
        "run_solo", "replay_clients", "PaxosProcess", "BenOrProcess",
        "FloodSetProcess",
        "Ballot", "SoloRun", "AgreementOutcome", "IteratedOutcome",
    ],
    "repro.adversary": [
        "adversarial_scheduler", "AdversaryResult", "AdversaryStalled",
        "check_all_lemmas", "LemmaReport", "run_theorem_pipeline",
        "TheoremPipelineResult", "SYNCH",
    ],
    "repro.detectors": ["Clock", "OmegaOracle", "PerfectDetector"],
    "repro.registers": [
        "AbdRegisterProcess", "RegularRegisterProcess", "Timestamp",
        "History", "OperationRecord", "check_linearizable",
        "LinearizabilityReport",
    ],
    "repro.apps": [
        "replay_replicas", "replay_kv_store", "replay_counter",
        "orphaned_replies", "logs_prefix_related", "counter_value",
        "apply_command", "apply_increment", "ReplicaStates",
    ],
    "repro.analysis": [
        "ordering_stats", "OrderingStats", "max_disagreement_clique",
        "VectorClock", "happened_before_graph", "happened_before_dot",
        "concurrent_steps", "render_figure1", "render_figure1_svg",
        "render_lanes", "ascii_table", "cost_profile", "CostProfile",
        "latency_stats", "delivery_latencies", "LatencyStats",
    ],
    "repro.experiments": [
        "figure1", "lemma10_grid", "theorem_pipeline", "symmetry_matrix",
        "register_power", "boundaries", "costs", "run_all",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in PUBLIC_API[module_name]
        if not hasattr(module, name)
    ]
    assert not missing, f"{module_name} lost public names: {missing}"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_all_is_consistent(module_name):
    module = importlib.import_module(module_name)
    if not hasattr(module, "__all__"):
        pytest.skip("module has no __all__")
    for name in module.__all__:
        assert hasattr(module, name), (
            f"{module_name}.__all__ lists missing name {name}"
        )
