from hypothesis import settings

# Property tests draw the same examples on every run and never fail on
# timing, so the suite stays deterministic.
settings.register_profile("padiclift", derandomize=True, deadline=None, database=None)
settings.load_profile("padiclift")
