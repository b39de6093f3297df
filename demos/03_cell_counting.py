# Rebuilding the full cell complex from the 1-skeleton by sign-vector
# perturbation: cell counts per dimension, the Euler characteristic sanity
# check, and the exact region census compared against naive point sampling.

from relucomplex.model import NeuronSchedule, random_model
from relucomplex.poset import count_cells, euler_characteristic, region_signatures
from relucomplex.skeleton import init_hypercube
from relucomplex.subdivide import extract_complex
from relucomplex.validate import sampled_region_oracle

for dim in (2, 3):
    net = random_model(dim, 4, 10, 1, seed=0)
    domain, sk = init_hypercube(dim, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    counts = count_cells(sk, sk.m, dim)
    print("D=%d: cells per dimension %s" % (dim, counts))
    print("     Euler characteristic %d (a ball gives 1)" % euler_characteristic(counts))

# sampling finds only the regions it happens to hit; the extracted census is
# exact, so the sampled set is always a subset
net = random_model(2, 4, 10, 1, seed=0)
domain, sk = init_hypercube(2, -1.0, 1.0)
schedule = NeuronSchedule.for_model(net)
sk, _ = extract_complex(net, domain, sk, schedule)
regions = {row.tobytes() for row in region_signatures(sk, sk.m)}
for n in (10**2, 10**4, 10**6):
    sampled = {row.tobytes() for row in sampled_region_oracle(net, domain, n, 0, schedule)}
    print("n=%-8d sampled %3d of %d regions (subset: %s)" % (
        n, len(sampled), len(regions), sampled <= regions))
