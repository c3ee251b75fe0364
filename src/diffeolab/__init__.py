"""diffeolab: a numerical laboratory for discrete subgroups of
orientation-preserving interval diffeomorphisms.

Generator families with certified derivative bounds, free-word enumeration,
orbit and distance computations, ping-pong certification, and the search
pipelines that produce nontrivial words arbitrarily close to the identity.
"""

from .action import (GridSpec, OrbitTrace, ProbeReport, SupEstimate,
                     apply_word, c0_dist_to_id, c1_dist_to_id, probe_ball,
                     word_deriv_bounds, word_values)
from .certify import (EndpointSlopeCheck, Interval, PingPongCertificate,
                      check_endpoint_slopes, check_pingpong,
                      positive_pair_separation, scan_endpoint_delta)
from .errors import (CapExhausted, ConfigError, ConstructionError, DomainError,
                     LabError, NumericError, PreconditionError)
from .generators import (GeneratorMap, GeneratorSet, Letter, blend, build_pp,
                         letter_bounds, mobius, polybump, spline, PP_I, PP_J)
from .words import (BallStats, Word, concat_reduce, enumerate_positive,
                    enumerate_sphere, growth_stats, invert, positive_count,
                    reduce_letters, sphere_size, word_from_text)
from .zassenhaus import (CollisionParams, CollisionReport, FlattenParams,
                         FlattenReport, TransportParams, TransportReport,
                         WreathNormalForm, WreathPair, build_wreath_pair,
                         choose_case, derivative_collision_search,
                         find_escape_word, flatten, interval_transport_search,
                         pigeonhole_bound, wreath_normal_form)

__version__ = "0.1.0"
