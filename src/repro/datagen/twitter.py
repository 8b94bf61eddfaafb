"""Synthetic Twitter data for the information-propagation case study (§8.1).

A preferential-attachment follow graph plus a tweet stream where URLs spread
through retweet cascades.  Only the *shape* matters for the case study: a
heavy-tailed follower distribution and a stream that can be partitioned into
time intervals with ~5 % appends per interval (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import RngStream


@dataclass(frozen=True)
class Tweet:
    """One (re)post of a URL: who posted, what, when, and from whom."""

    user: int
    url: int
    timestamp: int
    source_user: int  # -1 for an original post, else the user retweeted from

    def as_record(self) -> tuple:
        return (self.user, self.url, self.timestamp, self.source_user)


class TwitterGraph:
    """A preferential-attachment follow graph."""

    def __init__(self, num_users: int, seed: int = 0, mean_degree: int = 4):
        if num_users < 2:
            raise ValueError("need at least two users")
        self.num_users = num_users
        rng = RngStream(seed, "datagen.twitter.graph")
        #: follower -> followees (who this user receives tweets from).
        self.followees: dict[int, list[int]] = {0: [], 1: [0]}
        degree_pool: list[int] = [0, 1]  # repeated per in-degree
        for user in range(2, num_users):
            followees: set[int] = set()
            links = 1 + int(rng.integers(0, mean_degree))
            for _ in range(links):
                if rng.coin(0.7) and degree_pool:
                    target = int(
                        degree_pool[int(rng.integers(0, len(degree_pool)))]
                    )
                else:
                    target = int(rng.integers(0, user))
                if target != user:
                    followees.add(target)
            self.followees[user] = sorted(followees)
            degree_pool.extend(followees)
            degree_pool.append(user)


class TweetGenerator:
    """Generates a time-ordered tweet stream with retweet cascades."""

    def __init__(
        self,
        graph: TwitterGraph,
        num_urls: int = 200,
        seed: int = 0,
        retweet_probability: float = 0.35,
    ) -> None:
        self.graph = graph
        self.num_urls = num_urls
        self.retweet_probability = retweet_probability
        self._rng = RngStream(seed, "datagen.twitter.tweets")
        self._clock = 0
        #: url -> users who have already posted it (cascade frontier).
        self._spreaders: dict[int, list[int]] = {}
        self._follower_index: dict[int, list[int]] = {}
        for follower, followees in graph.followees.items():
            for followee in followees:
                self._follower_index.setdefault(followee, []).append(follower)

    def tweets(self, count: int) -> list[Tweet]:
        out = []
        for _ in range(count):
            out.append(self._next_tweet())
        return out

    def _next_tweet(self) -> Tweet:
        self._clock += 1
        if self._spreaders and self._rng.coin(self.retweet_probability):
            tweet = self._try_retweet()
            if tweet is not None:
                return tweet
        return self._original_post()

    def _original_post(self) -> Tweet:
        user = int(self._rng.integers(0, self.graph.num_users))
        url = int(self._rng.integers(0, self.num_urls))
        self._spreaders.setdefault(url, []).append(user)
        return Tweet(user=user, url=url, timestamp=self._clock, source_user=-1)

    def _try_retweet(self) -> Tweet | None:
        urls = list(self._spreaders)
        url = urls[int(self._rng.integers(0, len(urls)))]
        spreaders = self._spreaders[url]
        source = spreaders[int(self._rng.integers(0, len(spreaders)))]
        followers = self._follower_index.get(source, [])
        if not followers:
            return None
        user = followers[int(self._rng.integers(0, len(followers)))]
        self._spreaders[url].append(user)
        return Tweet(user=user, url=url, timestamp=self._clock, source_user=source)
