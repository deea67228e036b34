from hypothesis import settings

# derandomized and without per-example deadlines, so runs repeat exactly and
# a slow host cannot fail an example
settings.register_profile("g2cubics", derandomize=True, deadline=None, database=None)
settings.load_profile("g2cubics")
