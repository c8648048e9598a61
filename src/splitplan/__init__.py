"""splitplan: inference-delay planning for split execution of bottleneck-module CNNs.

Models a fleet of devices that each run the front of a segmentation network
locally, upload the cut activations (plus pooling indices) over a shared
uplink, and finish on a central server. Provides the delay algebra, seven
allocation policies for parallel and serial server processing, brute-force
oracles, and a seeded Monte-Carlo sweep harness.
"""

from .arch import (Architecture, BottleneckModule, CutProfile, LayerKind,
                   LayerSpec, TensorShape, load_architecture, propagate,
                   reference_architecture, toy_architecture)
from .channel import (LinkParams, achievable_rate, fading_stream, path_loss,
                      sample_fading, trial_fading)
from .delay import (AllocationPlan, Device, NetworkInstance, QueueState,
                    arrival_delay, broken_queue_total, parallel_delay,
                    queue_completions, residual_workload, serial_total_delay)
from .errors import SplitPlanError
from .harness import (ALL_POLICIES, ExperimentConfig, SweepResult,
                      bench_scaling, build_network, run_sweep, run_trial,
                      write_tables)
from .oracle import GridSpec, dense_root_scan, oracle_parallel, oracle_serial
from .parallel import (EqualDelayProblem, SolverSettings, bandwidth_for_rate,
                       equal_delay_allocation, first_layer_policy,
                       equal_delay_split, min_data_layer_policy, solve_p1,
                       solve_p2)
from .serial import (queue_first_layer_policy, queue_heuristic, reallocate_once,
                     solve_p3)

__version__ = "0.1.0"
