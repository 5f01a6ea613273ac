from hypothesis import settings

# every property test draws the same examples on every run and is timed by
# its example budget, not by a per-example deadline
settings.register_profile("ifedcrowd", derandomize=True, deadline=None)
settings.load_profile("ifedcrowd")
