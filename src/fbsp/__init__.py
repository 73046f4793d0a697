"""Forward-backward shortest paths toolkit.

Algorithms (Dijkstra, Spira, forward-backward SSSP, APSP), shortest-path-tree
verification, monotone bucket priority queues, and the probabilistic
machinery used to validate their average-case behaviour on randomly weighted
complete graphs.
"""

from .graph import (EXPONENTIAL, UNIFORM, WEIBULL, GraphError, SortedDigraph,
                    WeightModel, build_sorted_adjacency, gen_complete, load,
                    save)
from .pq import (BinaryHeapQueue, BucketQueue, QueueStats, bucket_defaults,
                 replay)
from .sssp import (FbRecording, ScanStats, ShortestPathTree, dijkstra,
                   fb_sssp, replay_trace, spira)
from .verify import (VerifyError, VerifyReport, select_median, tree_distances,
                     verify_fb, verify_forward_only, verify_full)
from .apsp import ApspResult, apsp
from .oracle import (PertinenceCounts, PertinenceRates, SptSample,
                     classify_pertinence, harmonic_expected_distance,
                     pertinence_rates, sample_pertinence_counts, sample_spt,
                     tail_fraction)

__version__ = "0.1.0"
